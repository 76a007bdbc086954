; Negative assembler fixture: the DS reserves 20h bytes from 0FFF0h, so the
; image would end at 10010h, past the top of the 64 K code space.
; platform_lint --asm must report one "asm" error on line 5 and exit 1.
        ORG 0FFF0h
        DS 20h
