#include "dsp/modem.hpp"

namespace ascp::dsp {

IqDemodulator::IqDemodulator(double fs, double bw)
    : lpf_i_(design_biquad_lowpass(bw, 0.707, fs)),
      lpf_q_(design_biquad_lowpass(bw, 0.707, fs)) {}

Iq IqDemodulator::step(double x, double carrier_i, double carrier_q) {
  // Factor 2 restores the baseband amplitude lost in the mixer product
  // (sin·sin = ½(1 − cos 2ω)).
  out_.i = lpf_i_.process(2.0 * x * carrier_i);
  out_.q = lpf_q_.process(2.0 * x * carrier_q);
  return out_;
}

void IqDemodulator::reset() {
  lpf_i_.reset();
  lpf_q_.reset();
  out_ = {};
}

}  // namespace ascp::dsp
