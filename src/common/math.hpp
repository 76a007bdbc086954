// math.hpp — small numeric helpers shared by the DSP designers and the
// metrology code: window functions, dB conversions, and least-squares line
// fitting (used for sensitivity/nonlinearity metrics).
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace ascp {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;

inline double db20(double ratio) { return 20.0 * std::log10(ratio); }
inline double db10(double ratio) { return 10.0 * std::log10(ratio); }
inline double from_db20(double db) { return std::pow(10.0, db / 20.0); }

/// sinc(x) = sin(pi x)/(pi x), the ideal-lowpass impulse response kernel.
double sinc(double x);

/// Hann window of length n (periodic=false gives the symmetric analysis window).
std::vector<double> hann_window(std::size_t n);

/// Hamming window of length n.
std::vector<double> hamming_window(std::size_t n);

/// Result of an ordinary least-squares straight-line fit y = slope*x + offset.
struct LineFit {
  double slope = 0.0;
  double offset = 0.0;
  /// Largest |residual| over the fitted points.
  double max_abs_residual = 0.0;
  /// RMS residual.
  double rms_residual = 0.0;
};

/// Least-squares fit of y against x. Requires x.size() == y.size() >= 2.
LineFit fit_line(std::span<const double> x, std::span<const double> y);

/// Mean of a sample.
double mean(std::span<const double> v);

/// Unbiased standard deviation of a sample.
double stddev(std::span<const double> v);

/// Root-mean-square of a sample.
double rms(std::span<const double> v);

/// Wrap an angle into (-pi, pi].
double wrap_phase(double phi);

}  // namespace ascp
