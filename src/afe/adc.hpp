// adc.hpp — SAR ADC behavioral model.
//
// Paper §4.2: "performing signal acquisition (by means of SAR ADCs,
// amplifiers and basic filters)". The model captures everything that matters
// to the digital chain: sample/hold, quantization, INL/DNL from a per-device
// mismatch draw, input-referred thermal noise, offset/gain error with
// temperature drift, and saturation at the rails. Resolution is a register-
// programmable platform parameter ("number of ADC bits", paper §3).
#pragma once

#include <cstdint>
#include <vector>

#include "afe/noise.hpp"
#include "common/rng.hpp"

namespace ascp::afe {

struct AdcConfig {
  int bits = 12;                  ///< resolution (programmable, 6..16)
  double vref = 2.5;              ///< full scale is ±vref (differential input)
  double noise_density = 50e-9;   ///< input-referred white noise [V/√Hz]
  double offset_volts = 0.0;      ///< static offset (before mismatch draw)
  double offset_drift = 2e-6;     ///< offset tempco [V/°C]
  double gain_error = 0.0;        ///< static gain error (fraction)
  double gain_drift = 10e-6;      ///< gain tempco [1/°C]
  double inl_lsb = 0.5;           ///< peak INL bowing [LSB]
  double dnl_sigma_lsb = 0.2;     ///< per-code DNL mismatch sigma [LSB]
  double fs = 240e3;              ///< sample rate [Hz]
};

/// Behavioral SAR ADC. Each instance draws its own static nonlinearity from
/// the RNG, modelling die-to-die mismatch; conversions are deterministic
/// given the seed. Offset and gain are drawn at construction; the per-code
/// INL table (2^bits doubles, 128 KiB at 14 bits) is drawn from the stream
/// the constructor left after those two draws, one 4 KiB page at a time:
/// the first conversion or inl_at() makes one pass over all the draws,
/// keeping the walk's endpoints and each page's starting stream and walk,
/// and a page is filled by replaying its draws when a read first lands in
/// it. The values are the same whenever and in whatever order the pages
/// are drawn; a converter holds only the pages its codes reach, and one
/// that never converts (an Ideal-fidelity system's) holds none.
class SarAdc {
 public:
  SarAdc(const AdcConfig& cfg, ascp::Rng rng);

  /// Convert one sample taken at ambient `temp_c`; returns the signed output
  /// code in [−2^(bits−1), 2^(bits−1)−1].
  std::int32_t convert(double vin, double temp_c = 25.0);

  /// Convert and rescale back to volts (code · LSB) — the value the digital
  /// chain sees after the interface scaling.
  double convert_volts(double vin, double temp_c = 25.0);

  double lsb() const { return lsb_; }
  int bits() const { return cfg_.bits; }
  const AdcConfig& config() const { return cfg_; }

  /// Static transfer-curve deviation at a given code [LSB] (INL read-back,
  /// used by the self-test bench). Draws the code's INL page if no read has,
  /// so, like convert(), it must not race another call on this converter.
  double inl_at(std::int32_t code) const;

  /// Conversions whose input was NaN; each returned the bottom code.
  /// Diagnostic only: not part of the checkpoint state.
  std::uint64_t nonfinite_inputs() const { return nonfinite_inputs_; }

  // ---- fault injection -----------------------------------------------------
  /// Comparator/SAR-logic failure: every conversion returns `code`.
  void inject_stuck_code(std::int32_t code) {
    stuck_ = true;
    stuck_code_ = code;
  }
  /// Reference drift: the actual full scale becomes vref·(1+frac) while the
  /// digital side keeps assuming the nominal LSB — codes shrink by 1/(1+frac).
  void inject_reference_shift(double frac) { ref_shift_ = frac; }
  void clear_faults() {
    stuck_ = false;
    ref_shift_ = 0.0;
  }

  void serialize_state(StateArchive& ar) {
    // Mismatch draws (offset_, gain_, the INL pages) reproduce from the same
    // seed (the pages at their first use); only the noise stream and fault
    // latches evolve.
    noise_.serialize_state(ar);
    ar.value(stuck_);
    ar.value(stuck_code_);
    ar.value(ref_shift_);
  }

 private:
  /// INL entries per 4 KiB page.
  static constexpr std::size_t kInlPage = 4096 / sizeof(double);
  /// One page of the INL table: the mismatch stream and the DNL walk before
  /// its first entry, and its values once a read has filled them.
  struct InlPage {
    ascp::Rng rng;
    double walk = 0.0;
    std::vector<double> values;  ///< [LSB]; empty until first read
  };

  /// INL at table index `i` (code − code_min_) [LSB].
  double inl(std::size_t i) const {
    if (inl_pages_.empty()) [[unlikely]] survey_inl();
    const InlPage& page = inl_pages_[i / kInlPage];
    if (page.values.empty()) [[unlikely]] fill_inl_page(i / kInlPage);
    return page.values[i % kInlPage];
  }
  /// The first read's pass over every draw of inl_rng_: the bow terms, the
  /// walk's endpoint values and each page's starting stream and walk.
  void survey_inl() const;
  /// Replays page `p`'s draws into its values.
  void fill_inl_page(std::size_t p) const;
  /// Table entry `i` before the endpoint line is removed.
  double inl_raw(std::size_t i, double walk) const;

  AdcConfig cfg_;
  double lsb_;
  std::int32_t code_min_, code_max_;
  std::size_t ncodes_;
  double offset_;  ///< drawn offset including mismatch
  double gain_;    ///< drawn gain including mismatch
  ascp::Rng inl_rng_;  ///< mismatch stream after the offset and gain draws
  // The INL table by page; empty until the first read surveys it.
  mutable std::vector<InlPage> inl_pages_;
  mutable double bow2_ = 0.0, bow3_ = 0.0, dnl_step_ = 0.0;
  mutable double inl_first_ = 0.0, inl_last_ = 0.0;  ///< raw endpoint entries
  std::uint64_t nonfinite_inputs_ = 0;
  NoiseSource noise_;
  bool stuck_ = false;
  std::int32_t stuck_code_ = 0;
  double ref_shift_ = 0.0;
};

}  // namespace ascp::afe
