//! Parafoil (parachute canopy) flight dynamics.
//!
//! A physically-motivated reduced model with the structure the paper's
//! simulator exposes: position, velocity, orientation (heading) and
//! rotation (heading rate) of the airdrop package, steered by an
//! asymmetric brake deflection.
//!
//! State vector (9 components):
//!
//! | idx | symbol | meaning |
//! |-----|--------|---------|
//! | 0–2 | `x, y, z` | position (z = altitude) |
//! | 3–5 | `vx, vy, vz` | inertial velocity |
//! | 6   | `ψ` | heading |
//! | 7   | `ψ̇` | heading rate (rotation) |
//! | 8   | `δ` | asymmetric brake deflection (−1…1) |
//!
//! Dynamics: the canopy tries to fly along its heading with airspeed
//! `Va(δ)` and sink rate `Vz(δ)` (glide polar); velocity relaxes toward
//! that aerodynamic equilibrium with time constant `τ_v` (apparent-mass
//! lag); the deflection `δ` follows the commanded input with actuator lag
//! `τ_δ`; and the heading rate follows `k_ψ δ` with yaw damping `τ_ψ`.
//! Braking asymmetrically slows the canopy and steepens the descent.
//! Wind adds to the air-relative equilibrium velocity.

use rk_ode::System;

/// State dimension of the parafoil model.
pub const STATE_DIM: usize = 9;

/// Aerodynamic and control-response parameters.
#[derive(Debug, Clone, Copy)]
pub struct ParafoilParams {
    /// Trim forward airspeed (units/s).
    pub(crate) va0: f64,
    /// Trim sink rate (units/s).
    pub(crate) vz0: f64,
    /// Airspeed loss per unit |δ|.
    pub(crate) brake_drag: f64,
    /// Sink-rate increase per unit δ².
    pub(crate) brake_sink: f64,
    /// Peak commanded heading rate (rad/s) at full deflection.
    pub(crate) k_turn: f64,
    /// Yaw response time constant (s).
    pub(crate) tau_psi: f64,
    /// Brake actuator time constant (s).
    pub(crate) tau_delta: f64,
    /// Velocity relaxation time constant (s).
    pub(crate) tau_v: f64,
}

impl Default for ParafoilParams {
    fn default() -> Self {
        Self {
            va0: 6.0,
            vz0: 3.0,
            brake_drag: 0.15,
            brake_sink: 0.30,
            k_turn: 1.2,
            tau_psi: 0.45,
            tau_delta: 0.35,
            tau_v: 0.40,
        }
    }
}

impl ParafoilParams {
    /// Glide ratio at trim (horizontal distance per unit altitude).
    pub(crate) fn glide_ratio(&self) -> f64 {
        self.va0 / self.vz0
    }

    /// Airspeed at deflection `delta`.
    pub(crate) fn airspeed(&self, delta: f64) -> f64 {
        self.va0 * (1.0 - self.brake_drag * delta.abs())
    }

    /// Sink rate at deflection `delta`.
    pub(crate) fn sink_rate(&self, delta: f64) -> f64 {
        self.vz0 * (1.0 + self.brake_sink * delta * delta)
    }

    /// Reciprocals of the relaxation time constants
    /// `(1/τ_v, 1/τ_ψ, 1/τ_δ)`.
    ///
    /// [`deriv_lane`] multiplies by these instead of dividing: the five
    /// per-lane divides were the throughput floor of the batched
    /// derivative (`vdivpd` is unpipelined), and the compiler cannot hoist
    /// a reciprocal itself because `x / τ` and `x · (1/τ)` differ in the
    /// last ulp. Both the scalar and the batched path compute the
    /// reciprocals with this one function and feed them through the same
    /// kernel, so scalar/batched bitwise parity is unaffected.
    pub(crate) fn inv_taus(&self) -> (f64, f64, f64) {
        (1.0 / self.tau_v, 1.0 / self.tau_psi, 1.0 / self.tau_delta)
    }
}

/// Per-lane derivative kernel, shared *verbatim* by the scalar
/// [`ParafoilDynamics`] and the batched SoA dynamics
/// ([`crate::batch::BatchedAirdropDynamics`]) — the scalar/batched
/// bitwise-parity contract reduces to "both paths call this function
/// with the same inputs". The body is branch-free straight-line
/// arithmetic (including [`simd_kernels::mathf64::sin_cos`]) so the batched
/// lane loop vectorizes.
///
/// Returns the non-trivial components `(v̇x, v̇y, v̇z, ψ̈, δ̇)`; the
/// position and heading derivatives are the velocity and heading-rate
/// states themselves.
#[inline(always)]
pub(crate) fn deriv_lane(
    p: &ParafoilParams,
    inv_taus: (f64, f64, f64),
    command: f64,
    wind: (f64, f64),
    v: (f64, f64, f64),
    (psi, psi_dot, delta): (f64, f64, f64),
) -> (f64, f64, f64, f64, f64) {
    let va = p.airspeed(delta);
    let vzr = p.sink_rate(delta);
    let (spsi, cpsi) = simd_kernels::mathf64::sin_cos(psi);

    // Aerodynamic equilibrium velocity (air mass frame + wind).
    let vdx = va * cpsi + wind.0;
    let vdy = va * spsi + wind.1;
    let vdz = -vzr;

    // `inv_taus` must come from `ParafoilParams::inv_taus` in every
    // caller — division-free relaxation, same bits on both paths.
    (
        // Velocity relaxation toward equilibrium.
        (vdx - v.0) * inv_taus.0,
        (vdy - v.1) * inv_taus.0,
        (vdz - v.2) * inv_taus.0,
        // Heading-rate dynamics.
        (p.k_turn * delta - psi_dot) * inv_taus.1,
        // Actuator lag toward the held command.
        (command.clamp(-1.0, 1.0) - delta) * inv_taus.2,
    )
}

/// The ODE right-hand side for one control interval.
///
/// The commanded deflection `command` and the wind vector are held
/// constant across the interval (zero-order hold), as in any discrete
/// control loop; the integrator only sees a smooth autonomous system.
#[derive(Debug, Clone, Copy)]
pub struct ParafoilDynamics {
    /// Physical parameters.
    pub params: ParafoilParams,
    /// Commanded deflection in `[-1, 1]`.
    pub command: f64,
    /// Wind (constant + gust) during this interval, units/s.
    pub wind: (f64, f64),
}

impl System for ParafoilDynamics {
    fn dim(&self) -> usize {
        STATE_DIM
    }

    fn deriv(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let (vx, vy, vz) = (y[3], y[4], y[5]);
        let (psi, psi_dot, delta) = (y[6], y[7], y[8]);
        let inv_taus = self.params.inv_taus();
        let (ax, ay, az, alpha, ddelta) = deriv_lane(
            &self.params,
            inv_taus,
            self.command,
            self.wind,
            (vx, vy, vz),
            (psi, psi_dot, delta),
        );

        // Position.
        dydt[0] = vx;
        dydt[1] = vy;
        dydt[2] = vz;
        // Velocity relaxation.
        dydt[3] = ax;
        dydt[4] = ay;
        dydt[5] = az;
        // Heading dynamics.
        dydt[6] = psi_dot;
        dydt[7] = alpha;
        // Actuator lag.
        dydt[8] = ddelta;
    }
}

/// Initial state for a drop: position `(x, y)` at altitude `z`, flying at
/// trim along heading `psi`.
pub fn initial_state(
    x: f64,
    y: f64,
    z: f64,
    psi: f64,
    params: &ParafoilParams,
) -> [f64; STATE_DIM] {
    let (s, c) = psi.sin_cos();
    [x, y, z, params.va0 * c, params.va0 * s, -params.vz0, psi, 0.0, 0.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rk_ode::{Integration, RkOrder};

    fn integrate(
        dyns: &ParafoilDynamics,
        y: &mut [f64],
        t: f64,
        order: RkOrder,
        h: f64,
    ) -> rk_ode::Work {
        Integration::new(dyns.factory_helper(order).as_ref()).step(h).run(dyns, y, 0.0, t)
    }

    impl ParafoilDynamics {
        fn factory_helper(&self, order: RkOrder) -> Box<dyn rk_ode::stepper::StepperFactory> {
            order.factory()
        }
    }

    fn trim_drop() -> (ParafoilDynamics, [f64; STATE_DIM]) {
        let params = ParafoilParams::default();
        let dyns = ParafoilDynamics { params, command: 0.0, wind: (0.0, 0.0) };
        let y = initial_state(0.0, 0.0, 500.0, 0.0, &params);
        (dyns, y)
    }

    #[test]
    fn straight_glide_preserves_heading_and_descends() {
        let (dyns, mut y) = trim_drop();
        integrate(&dyns, &mut y, 10.0, RkOrder::Five, 0.1);
        assert!((y[6] - 0.0).abs() < 1e-9, "heading must stay 0");
        assert!(y[2] < 500.0 - 25.0, "must descend ~30 units: z = {}", y[2]);
        assert!(y[0] > 50.0, "must fly forward: x = {}", y[0]);
        assert!(y[1].abs() < 1e-6, "no lateral drift without wind");
    }

    #[test]
    fn glide_ratio_is_respected_at_trim() {
        let (dyns, mut y) = trim_drop();
        integrate(&dyns, &mut y, 30.0, RkOrder::Five, 0.1);
        let horizontal = y[0];
        let dropped = 500.0 - y[2];
        let ratio = horizontal / dropped;
        let expect = dyns.params.glide_ratio();
        assert!((ratio - expect).abs() < 0.1, "glide ratio {ratio} vs {expect}");
    }

    #[test]
    fn full_deflection_turns_the_canopy() {
        let (mut dyns, mut y) = trim_drop();
        dyns.command = 1.0;
        integrate(&dyns, &mut y, 8.0, RkOrder::Five, 0.1);
        // After transients the heading rate approaches k_turn.
        assert!((y[7] - dyns.params.k_turn).abs() < 0.05, "psi_dot = {}", y[7]);
        assert!(y[6] > 2.0, "heading should have advanced: psi = {}", y[6]);
        // Deflection converged to the command.
        assert!((y[8] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn braking_steepens_descent() {
        let (dyns0, mut y0) = trim_drop();
        let (mut dyns1, mut y1) = trim_drop();
        dyns1.command = 1.0;
        integrate(&dyns0, &mut y0, 10.0, RkOrder::Five, 0.1);
        integrate(&dyns1, &mut y1, 10.0, RkOrder::Five, 0.1);
        assert!(y1[2] < y0[2], "deflected canopy sinks faster");
    }

    #[test]
    fn wind_advects_the_package() {
        let (mut dyns, mut y) = trim_drop();
        dyns.wind = (0.0, 2.0);
        integrate(&dyns, &mut y, 10.0, RkOrder::Five, 0.1);
        assert!(y[1] > 10.0, "wind must push laterally: y = {}", y[1]);
    }

    #[test]
    fn lower_rk_order_is_less_accurate() {
        // Reference: order 8, tiny step. Compare one 0.5 s control interval
        // under a hard turn — exactly the regime the agent creates.
        let params = ParafoilParams::default();
        let dyns = ParafoilDynamics { params, command: 1.0, wind: (0.0, 0.0) };
        let y0 = initial_state(0.0, 0.0, 500.0, 0.3, &params);

        let mut reference = y0;
        integrate(&dyns, &mut reference, 4.0, RkOrder::Eight, 0.01);

        let err = |order: RkOrder| -> f64 {
            let mut y = y0;
            integrate(&dyns, &mut y, 4.0, order, 0.5);
            y.iter().zip(reference.iter()).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt()
        };

        let e3 = err(RkOrder::Three);
        let e5 = err(RkOrder::Five);
        let e8 = err(RkOrder::Eight);
        assert!(e3 > e5 && e5 > e8, "errors must order by RK order: {e3} {e5} {e8}");
        assert!(e3 > 1e-6, "order-3 error must be non-negligible: {e3}");
    }

    #[test]
    fn higher_rk_order_costs_more_evals() {
        let (dyns, y0) = trim_drop();
        let mut work = Vec::new();
        for order in RkOrder::ALL {
            let mut y = y0;
            work.push(integrate(&dyns, &mut y, 1.0, order, 0.25).fn_evals);
        }
        assert!(work[0] < work[1] && work[1] < work[2], "{work:?}");
    }

    #[test]
    fn initial_state_is_at_trim() {
        let p = ParafoilParams::default();
        let y = initial_state(1.0, 2.0, 300.0, std::f64::consts::FRAC_PI_2, &p);
        assert!((y[3]).abs() < 1e-12, "vx = Va cos(pi/2) = 0");
        assert!((y[4] - p.va0).abs() < 1e-12);
        assert_eq!(y[5], -p.vz0);
        assert_eq!(y[8], 0.0);
    }

    #[test]
    fn params_polar_relations() {
        let p = ParafoilParams::default();
        assert!(p.airspeed(1.0) < p.airspeed(0.0));
        assert!(p.sink_rate(1.0) > p.sink_rate(0.0));
        assert_eq!(p.airspeed(-0.5), p.airspeed(0.5), "polar is symmetric in |δ|");
        assert_eq!(p.glide_ratio(), p.va0 / p.vz0);
    }
}
