#include "core/sense_chain.hpp"

#include <algorithm>
#include <cmath>

namespace ascp::core {

SenseChain::SenseChain(const SenseChainConfig& cfg)
    : cfg_(cfg),
      demod_(cfg.fs, cfg.demod_bw),
      mod_(1.0),
      cic_rate_(cfg.cic_stages, cfg.cic_ratio, 16, 2.5),
      cic_quad_(cfg.cic_stages, cfg.cic_ratio, 16, 2.5),
      fir_(dsp::design_lowpass(cfg.fir_taps, cfg.fir_corner, cfg.fs / cfg.cic_ratio)),
      out_lpf_(dsp::design_butterworth_lowpass(4, cfg.output_bw_hz, cfg.fs / cfg.cic_ratio)),
      dp_q_(cfg.datapath_bits > 0 ? std::optional<Quantizer>(Quantizer(cfg.datapath_bits, 2.5))
                                  : std::nullopt),
      cos_d_(std::cos(cfg.demod_phase_trim)),
      sin_d_(std::sin(cfg.demod_phase_trim)),
      cos_f_(std::cos(cfg.fb_phase_trim)),
      sin_f_(std::sin(cfg.fb_phase_trim)) {}

SenseFastOut SenseChain::step(double pickoff, double carrier_i, double carrier_q) {
  // Phase-trimmed references: rotate the carrier pair by the configured
  // trims so detection and actuation align with the physical path delays.
  const double ci_d = cos_d_ * carrier_i + sin_d_ * carrier_q;
  const double cq_d = cos_d_ * carrier_q - sin_d_ * carrier_i;
  bb_ = demod_.step(pickoff, ci_d, cq_d);
  if (dp_q_) {
    bb_.i = dp_q_->quantize(bb_.i);
    bb_.q = dp_q_->quantize(bb_.q);
  }

  SenseFastOut out;
  double rate_fast = bb_.q;   // Coriolis lands in the cosine channel
  const double quad_fast = bb_.i;

  if (cfg_.mode == SenseMode::ClosedLoop) {
    const double dt = 1.0 / cfg_.fs;
    // Servo signs follow the plant: a sine-phase control force moves the
    // cosine demod output negatively; a cosine-phase force moves the sine
    // output positively.
    rate_integ_ += cfg_.rate_ki * bb_.q * dt;
    quad_integ_ -= cfg_.quad_ki * bb_.i * dt;
    rate_integ_ = std::clamp(rate_integ_, -cfg_.ctrl_limit, cfg_.ctrl_limit);
    quad_integ_ = std::clamp(quad_integ_, -cfg_.ctrl_limit, cfg_.ctrl_limit);
    if (dp_q_) {
      // Integrators live in wider registers in hardware; model one extra
      // octave of headroom bits beyond the datapath word.
      const Quantizer integ_q(cfg_.datapath_bits + 4, 2.5);
      rate_integ_ = integ_q.quantize(rate_integ_);
      quad_integ_ = integ_q.quantize(quad_integ_);
    }
    const double u_rate =
        std::clamp(rate_integ_ + cfg_.rate_kp * bb_.q, -cfg_.ctrl_limit, cfg_.ctrl_limit);
    const double u_quad =
        std::clamp(quad_integ_ - cfg_.quad_kp * bb_.i, -cfg_.ctrl_limit, cfg_.ctrl_limit);
    const double ci_f = cos_f_ * carrier_i + sin_f_ * carrier_q;
    const double cq_f = cos_f_ * carrier_q - sin_f_ * carrier_i;
    out.control_v = mod_.step(dsp::Iq{u_rate, u_quad}, ci_f, cq_f);
    // In closed loop the measurement is the feedback effort, not the
    // residual — that is what makes the loop linearizing (paper §4.1).
    rate_fast = u_rate;
  }

  if (const auto y = cic_rate_.push(rate_fast)) pending_rate_ = *y;
  if (const auto y = cic_quad_.push(quad_fast)) pending_quad_ = *y;
  return out;
}

void SenseChain::step_block(std::span<const double> pickoff, std::span<const double> carrier_i,
                            std::span<const double> carrier_q) {
  for (std::size_t k = 0; k < pickoff.size(); ++k) step(pickoff[k], carrier_i[k], carrier_q[k]);
}

std::optional<SenseSlowOut> SenseChain::slow_output(double measured_temp_c) {
  if (!pending_rate_) return std::nullopt;
  raw_rate_ = out_lpf_.process(fir_.process(*pending_rate_));
  raw_quad_ = pending_quad_.value_or(raw_quad_);
  pending_rate_.reset();
  pending_quad_.reset();
  SenseSlowOut out;
  out.rate = comp_.apply(raw_rate_, measured_temp_c) + cfg_.output_offset;
  out.quad = raw_quad_;
  return out;
}

void SenseChain::reset() {
  demod_.reset();
  cic_rate_.reset();
  cic_quad_.reset();
  fir_.reset();
  out_lpf_.reset();
  bb_ = {};
  rate_integ_ = quad_integ_ = 0.0;
  raw_rate_ = raw_quad_ = 0.0;
  pending_rate_.reset();
  pending_quad_.reset();
}

}  // namespace ascp::core
