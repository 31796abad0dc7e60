//! Butcher tableaus for explicit Runge–Kutta methods.
//!
//! A tableau holds the coefficients `(a, b, c)` of an explicit RK method.
//! Integration here is fixed-step, so the embedded pairs (Bogacki–Shampine,
//! Dormand–Prince) carry their propagated solution only.

/// Butcher tableau of an explicit Runge–Kutta method.
///
/// The `a` matrix is stored as a flat lower-triangular slice in row-major
/// order: row `i` (for stage `i`, `1 <= i < stages`) occupies entries
/// `[i*(i-1)/2 .. i*(i-1)/2 + i]`.
#[derive(Debug, Clone)]
pub struct Tableau {
    /// Human-readable method name, e.g. `"Bogacki-Shampine 3(2)"`.
    pub name: &'static str,
    /// Classical order of the higher-order solution.
    pub order: u32,
    /// Number of stages.
    pub(crate) stages: usize,
    /// Lower-triangular stage coefficients, flattened.
    pub(crate) a: &'static [f64],
    /// Weights of the propagated (higher-order) solution.
    pub(crate) b: &'static [f64],
    /// Stage nodes.
    pub(crate) c: &'static [f64],
    /// First-Same-As-Last: the last stage equals `f(t+h, y_{n+1})` and can
    /// seed the first stage of the next step.
    pub(crate) fsal: bool,
}

impl Tableau {
    /// Coefficient `a[i][j]` (stage `i`, `0 <= j < i`).
    #[inline]
    pub(crate) fn a(&self, i: usize, j: usize) -> f64 {
        debug_assert!(j < i && i < self.stages);
        self.a[i * (i - 1) / 2 + j]
    }

    /// Validate structural consistency (lengths, row-sum condition).
    ///
    /// Returns a description of the first violated property, or `Ok(())`.
    /// The row-sum condition `c_i = Σ_j a_ij` holds for all standard
    /// explicit methods and is a cheap guard against coefficient typos.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let s = self.stages;
        if self.b.len() != s {
            return Err(format!("{}: b has {} entries, want {}", self.name, self.b.len(), s));
        }
        if self.c.len() != s {
            return Err(format!("{}: c has {} entries, want {}", self.name, self.c.len(), s));
        }
        if self.a.len() != s * (s - 1) / 2 {
            return Err(format!(
                "{}: a has {} entries, want {}",
                self.name,
                self.a.len(),
                s * (s - 1) / 2
            ));
        }
        // Row-sum condition.
        for i in 0..s {
            let sum: f64 = (0..i).map(|j| self.a(i, j)).sum();
            if (sum - self.c[i]).abs() > 1e-12 {
                return Err(format!(
                    "{}: row-sum violated at stage {i}: sum(a)={sum}, c={}",
                    self.name, self.c[i]
                ));
            }
        }
        // Consistency: Σ b_i = 1.
        let bsum: f64 = self.b.iter().sum();
        if (bsum - 1.0).abs() > 1e-12 {
            return Err(format!("{}: sum(b) = {bsum}, want 1", self.name));
        }
        Ok(())
    }
}

/// Forward Euler — order 1, one stage.
pub(crate) const EULER: Tableau =
    Tableau { name: "Euler", order: 1, stages: 1, a: &[], b: &[1.0], c: &[0.0], fsal: false };

/// Heun's method (explicit trapezoid) — order 2, two stages.
pub(crate) const HEUN2: Tableau = Tableau {
    name: "Heun 2",
    order: 2,
    stages: 2,
    a: &[1.0],
    b: &[0.5, 0.5],
    c: &[0.0, 1.0],
    fsal: false,
};

/// Bogacki–Shampine 3(2) — order 3, four stages, FSAL.
///
/// This is SciPy's `RK23`; the paper's "3rd order Runge–Kutta".
pub(crate) const BS23: Tableau = Tableau {
    name: "Bogacki-Shampine 3(2)",
    order: 3,
    stages: 4,
    a: &[
        // stage 1
        0.5,
        // stage 2
        0.0,
        0.75,
        // stage 3 (the propagated solution itself: FSAL)
        2.0 / 9.0,
        1.0 / 3.0,
        4.0 / 9.0,
    ],
    b: &[2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0, 0.0],
    c: &[0.0, 0.5, 0.75, 1.0],
    fsal: true,
};

/// Classic Runge–Kutta — order 4, four stages.
pub(crate) const RK4: Tableau = Tableau {
    name: "Classic RK4",
    order: 4,
    stages: 4,
    a: &[
        0.5, //
        0.0, 0.5, //
        0.0, 0.0, 1.0,
    ],
    b: &[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
    c: &[0.0, 0.5, 0.5, 1.0],
    fsal: false,
};

/// Dormand–Prince 5(4) — order 5, seven stages, FSAL.
///
/// This is SciPy's `RK45`; the paper's "5th order Runge–Kutta".
pub const DOPRI5: Tableau = Tableau {
    name: "Dormand-Prince 5(4)",
    order: 5,
    stages: 7,
    a: &[
        // stage 1
        0.2,
        // stage 2
        3.0 / 40.0,
        9.0 / 40.0,
        // stage 3
        44.0 / 45.0,
        -56.0 / 15.0,
        32.0 / 9.0,
        // stage 4
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        // stage 5
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        // stage 6 (= b row: FSAL)
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
    b: &[35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0],
    c: &[0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0],
    fsal: true,
};

/// All built-in tableaus, for enumeration in tests and benches.
pub const ALL_TABLEAUS: &[&Tableau] = &[&EULER, &HEUN2, &BS23, &RK4, &DOPRI5];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tableaus_validate() {
        for t in ALL_TABLEAUS {
            t.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn a_indexing_matches_layout() {
        // DOPRI5 stage 4, column 2 is 64448/6561.
        assert_eq!(DOPRI5.a(4, 2), 64448.0 / 6561.0);
        // BS23 stage 2, column 1 is 0.75.
        assert_eq!(BS23.a(2, 1), 0.75);
    }

    #[test]
    fn fsal_last_stage_matches_b_row() {
        // For an FSAL method, the last row of `a` equals `b[..stages-1]`.
        for t in [&BS23, &DOPRI5] {
            assert!(t.fsal);
            let s = t.stages;
            for j in 0..s - 1 {
                assert!(
                    (t.a(s - 1, j) - t.b[j]).abs() < 1e-15,
                    "{}: a[{},{}] != b[{}]",
                    t.name,
                    s - 1,
                    j,
                    j
                );
            }
            assert_eq!(t.b[s - 1], 0.0);
        }
    }

    #[test]
    fn validate_catches_bad_row_sum() {
        const BAD: Tableau = Tableau {
            name: "bad",
            order: 2,
            stages: 2,
            a: &[0.9],
            b: &[0.5, 0.5],
            c: &[0.0, 1.0],
            fsal: false,
        };
        assert!(BAD.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_weights() {
        const BAD: Tableau = Tableau {
            name: "bad-b",
            order: 1,
            stages: 1,
            a: &[],
            b: &[0.9],
            c: &[0.0],
            fsal: false,
        };
        assert!(BAD.validate().is_err());
    }
}
