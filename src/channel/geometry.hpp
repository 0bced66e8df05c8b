// 2-D geometry primitives: points, rooms, and AP array poses.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/angles.hpp"
#include "dsp/constants.hpp"

namespace roarray::channel {

/// A 2-D point / vector in meters.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  [[nodiscard]] Vec2 operator+(const Vec2& o) const noexcept { return {x + o.x, y + o.y}; }
  [[nodiscard]] Vec2 operator-(const Vec2& o) const noexcept { return {x - o.x, y - o.y}; }
  [[nodiscard]] Vec2 operator*(double s) const noexcept { return {x * s, y * s}; }

  [[nodiscard]] double norm() const noexcept { return std::hypot(x, y); }

  [[nodiscard]] double dot(const Vec2& o) const noexcept { return x * o.x + y * o.y; }

  /// Unit vector in the same direction; throws on the zero vector.
  [[nodiscard]] Vec2 normalized() const {
    const double n = norm();
    if (n <= 0.0) throw std::domain_error("Vec2::normalized: zero vector");
    return {x / n, y / n};
  }
};

[[nodiscard]] inline double distance(const Vec2& a, const Vec2& b) noexcept {
  return (a - b).norm();
}

/// An axis-aligned rectangular room with walls at x=0, x=width,
/// y=0, y=height (the paper's testbed is 18 m x 12 m).
struct Room {
  double width_m = 18.0;
  double height_m = 12.0;

  [[nodiscard]] bool contains(const Vec2& p) const noexcept {
    return p.x >= 0.0 && p.x <= width_m && p.y >= 0.0 && p.y <= height_m;
  }

  /// Throws std::invalid_argument unless both dimensions are positive
  /// and finite (a NaN or infinite room has no grid to search).
  void validate() const {
    if (!(std::isfinite(width_m) && std::isfinite(height_m)) ||
        width_m <= 0.0 || height_m <= 0.0) {
      throw std::invalid_argument("Room: dimensions must be positive and finite");
    }
  }
};

/// Pose of an AP's uniform linear array: the phase-center position and
/// the direction of the array axis (the line the antennas lie on),
/// measured counter-clockwise from +x in degrees.
struct ApPose {
  Vec2 position;
  double axis_deg = 0.0;

  /// Unit vector along the array axis.
  [[nodiscard]] Vec2 axis_unit() const noexcept {
    const double r = dsp::deg_to_rad(axis_deg);
    return {std::cos(r), std::sin(r)};
  }

  /// AoA (in [0, 180] degrees, relative to the array axis) of a signal
  /// arriving from direction `incoming_from` (unit vector pointing from
  /// the AP toward the apparent source).
  [[nodiscard]] double aoa_of_direction(const Vec2& incoming_from) const {
    const Vec2 u = incoming_from.normalized();
    const double c = std::clamp(u.dot(axis_unit()), -1.0, 1.0);
    return dsp::rad_to_deg(std::acos(c));
  }

  /// AoA of the direct (line-of-sight) path from a target position.
  [[nodiscard]] double aoa_of_point(const Vec2& target) const {
    return aoa_of_direction(target - position);
  }
};

}  // namespace roarray::channel
