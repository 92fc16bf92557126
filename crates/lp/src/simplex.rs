//! Dense two-phase primal simplex.
//!
//! Solves `min c·x` subject to `A x {≤,≥,=} b` and `x ≥ 0`. Phase 1
//! minimizes the sum of artificial variables to find a basic feasible
//! solution; phase 2 optimizes the real objective. Pivoting uses
//! Dantzig's rule with a Bland's-rule fallback after a run of degenerate
//! pivots, which guarantees termination.
//!
//! The implementation is a straightforward dense tableau — appropriate
//! for the Appendix-B allocation models, whose tractable instances are
//! small (the paper itself caps the optimal allocation at 7 backends).

#![expect(
    clippy::needless_range_loop,
    reason = "dense tableau arithmetic reads more clearly with explicit indices"
)]

/// Relational operator of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// A sparse constraint row: variable coefficients, relation, right-hand
/// side.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; unmentioned variables are 0.
    pub coeffs: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub op: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// `Σ coeffs ≤ rhs`
    pub fn le(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            op: Relation::Le,
            rhs,
        }
    }

    /// `Σ coeffs ≥ rhs`
    pub fn ge(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            op: Relation::Ge,
            rhs,
        }
    }

    /// `Σ coeffs = rhs`
    pub fn eq(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            op: Relation::Eq,
            rhs,
        }
    }
}

/// A minimization LP over non-negative variables.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    /// Number of decision variables.
    pub n_vars: usize,
    /// Objective coefficients (minimized); length `n_vars`.
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an LP with all-zero objective.
    pub fn new(n_vars: usize) -> Self {
        Self {
            n_vars,
            objective: vec![0.0; n_vars],
            constraints: Vec::new(),
        }
    }

    /// Sets the objective coefficient of variable `v`.
    pub fn set_objective(&mut self, v: usize, c: f64) {
        self.objective[v] = c;
    }

    /// Appends a constraint row.
    pub fn add(&mut self, c: Constraint) {
        self.constraints.push(c);
    }
}

/// Result of solving an LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal {
        /// Optimal variable values.
        x: Vec<f64>,
        /// Optimal objective value.
        objective: f64,
    },
    /// The constraints are contradictory.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

const TOL: f64 = 1e-8;
/// Degenerate-pivot run length before switching to Bland's rule.
const BLAND_THRESHOLD: u32 = 64;

/// Solves the LP with the two-phase simplex method.
pub fn solve(lp: &LinearProgram) -> LpOutcome {
    Tableau::build(lp).solve(lp)
}

struct Tableau {
    /// Rows × columns; the last column is the RHS.
    rows: Vec<Vec<f64>>,
    /// Basis variable of each row.
    basis: Vec<usize>,
    n_structural: usize,
    n_slack: usize,
    n_artificial: usize,
}

impl Tableau {
    fn n_cols(&self) -> usize {
        self.n_structural + self.n_slack + self.n_artificial
    }

    fn build(lp: &LinearProgram) -> Self {
        let m = lp.constraints.len();
        let n = lp.n_vars;
        // Count slack/surplus and artificial columns.
        let n_slack = lp
            .constraints
            .iter()
            .filter(|c| c.op != Relation::Eq)
            .count();
        // Normalize rows to b >= 0 first to know which need artificials.
        // A ≤ row with b ≥ 0 gets its slack as the initial basis; every
        // other row needs an artificial.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut slack_sign: Vec<Option<f64>> = Vec::with_capacity(m);
        for c in &lp.constraints {
            let mut row = vec![0.0; n];
            for &(v, coef) in &c.coeffs {
                assert!(v < n, "variable index out of range");
                row[v] += coef;
            }
            let mut rhs = c.rhs;
            let mut op = c.op;
            if rhs < 0.0 {
                for v in row.iter_mut() {
                    *v = -*v;
                }
                rhs = -rhs;
                op = match op {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
            row.push(rhs);
            rows.push(row);
            slack_sign.push(match op {
                Relation::Le => Some(1.0),
                Relation::Ge => Some(-1.0),
                Relation::Eq => None,
            });
        }
        let n_artificial = slack_sign
            .iter()
            .filter(|s| !matches!(s, Some(sgn) if *sgn > 0.0))
            .count();

        let total = n + n_slack + n_artificial;
        let mut basis = vec![0usize; m];
        let mut full_rows: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut slack_idx = 0usize;
        let mut art_idx = 0usize;
        for (i, mut row) in rows.into_iter().enumerate() {
            #[expect(clippy::expect_used, reason = "every row ends with its rhs")]
            let rhs = row.pop().expect("row has rhs");
            row.resize(total, 0.0);
            match slack_sign[i] {
                Some(sgn) => {
                    let col = n + slack_idx;
                    row[col] = sgn;
                    slack_idx += 1;
                    if sgn > 0.0 {
                        basis[i] = col;
                    } else {
                        let a = n + n_slack + art_idx;
                        row[a] = 1.0;
                        basis[i] = a;
                        art_idx += 1;
                    }
                }
                None => {
                    let a = n + n_slack + art_idx;
                    row[a] = 1.0;
                    basis[i] = a;
                    art_idx += 1;
                }
            }
            row.push(rhs);
            full_rows.push(row);
        }
        Self {
            rows: full_rows,
            basis,
            n_structural: n,
            n_slack,
            n_artificial,
        }
    }

    fn solve(mut self, lp: &LinearProgram) -> LpOutcome {
        let total = self.n_cols();
        let rhs_col = total;

        // Phase 1: minimize the sum of artificials.
        if self.n_artificial > 0 {
            let mut obj = vec![0.0; total + 1];
            for a in (self.n_structural + self.n_slack)..total {
                obj[a] = 1.0;
            }
            // Price out the basic artificials.
            for (i, &b) in self.basis.iter().enumerate() {
                if b >= self.n_structural + self.n_slack {
                    for j in 0..=total {
                        obj[j] -= self.rows[i][j];
                    }
                }
            }
            match self.optimize(&mut obj, Some(self.n_structural + self.n_slack)) {
                PivotEnd::Optimal => {}
                PivotEnd::Unbounded => unreachable!("phase 1 objective is bounded below by 0"),
            }
            let phase1 = -obj[rhs_col];
            if phase1 > 1e-6 {
                return LpOutcome::Infeasible;
            }
            // Pivot remaining artificials out of the basis where possible;
            // rows where it's impossible are redundant.
            for i in 0..self.rows.len() {
                if self.basis[i] >= self.n_structural + self.n_slack {
                    let piv = (0..self.n_structural + self.n_slack)
                        .find(|&j| self.rows[i][j].abs() > TOL);
                    if let Some(j) = piv {
                        self.pivot(i, j);
                    }
                }
            }
        }

        // Phase 2: price the real objective w.r.t. the current basis.
        let mut obj = vec![0.0; total + 1];
        obj[..self.n_structural].copy_from_slice(&lp.objective);
        for (i, &b) in self.basis.iter().enumerate() {
            if obj[b].abs() > 0.0 {
                let coef = obj[b];
                for j in 0..=total {
                    obj[j] -= coef * self.rows[i][j];
                }
            }
        }
        match self.optimize(&mut obj, Some(self.n_structural + self.n_slack)) {
            PivotEnd::Optimal => {}
            PivotEnd::Unbounded => return LpOutcome::Unbounded,
        }

        let mut x = vec![0.0; self.n_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_structural {
                x[b] = self.rows[i][rhs_col];
            }
        }
        let objective = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>();
        LpOutcome::Optimal { x, objective }
    }

    /// Runs primal pivots until optimal or unbounded. `col_limit`
    /// restricts entering columns (phase 2 must not re-enter
    /// artificials).
    fn optimize(&mut self, obj: &mut [f64], col_limit: Option<usize>) -> PivotEnd {
        let limit = col_limit.unwrap_or(self.n_cols());
        let rhs_col = self.n_cols();
        let mut degenerate_run = 0u32;
        loop {
            // Entering column.
            let entering = if degenerate_run >= BLAND_THRESHOLD {
                // Bland: smallest index with negative reduced cost.
                (0..limit).find(|&j| obj[j] < -TOL)
            } else {
                // Dantzig: most negative reduced cost.
                let mut best: Option<(usize, f64)> = None;
                for (j, &c) in obj.iter().enumerate().take(limit) {
                    if c < -TOL && best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((j, c));
                    }
                }
                best.map(|(j, _)| j)
            };
            let Some(e) = entering else {
                return PivotEnd::Optimal;
            };
            // Ratio test (Bland ties on smallest basis index).
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.rows.len() {
                let a = self.rows[i][e];
                if a > TOL {
                    let ratio = self.rows[i][rhs_col] / a;
                    let better = match leave {
                        None => true,
                        Some((li, lr)) => {
                            ratio < lr - TOL || (ratio < lr + TOL && self.basis[i] < self.basis[li])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((l, ratio)) = leave else {
                return PivotEnd::Unbounded;
            };
            if ratio < TOL {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }
            self.pivot(l, e);
            // Update the objective row.
            let coef = obj[e];
            if coef.abs() > 0.0 {
                for j in 0..=rhs_col {
                    obj[j] -= coef * self.rows[l][j];
                }
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let rhs_col = self.n_cols();
        let p = self.rows[row][col];
        debug_assert!(p.abs() > TOL, "pivot on near-zero element");
        for j in 0..=rhs_col {
            self.rows[row][j] /= p;
        }
        for i in 0..self.rows.len() {
            if i == row {
                continue;
            }
            let f = self.rows[i][col];
            if f.abs() > 0.0 {
                for j in 0..=rhs_col {
                    let delta = f * self.rows[row][j];
                    self.rows[i][j] -= delta;
                }
                self.rows[i][col] = 0.0; // kill residual noise
            }
        }
        self.basis[row] = col;
    }
}

enum PivotEnd {
    Optimal,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_opt(outcome: LpOutcome, expect_obj: f64, expect_x: Option<&[f64]>) {
        match outcome {
            LpOutcome::Optimal { x, objective } => {
                assert!(
                    (objective - expect_obj).abs() < 1e-6,
                    "objective {objective} != {expect_obj}"
                );
                if let Some(ex) = expect_x {
                    for (i, (&a, &b)) in x.iter().zip(ex).enumerate() {
                        assert!((a - b).abs() < 1e-6, "x[{i}] = {a}, expected {b}");
                    }
                }
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximization_as_min() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -3.0);
        lp.set_objective(1, -5.0);
        lp.add(Constraint::le(vec![(0, 1.0)], 4.0));
        lp.add(Constraint::le(vec![(1, 2.0)], 12.0));
        lp.add(Constraint::le(vec![(0, 3.0), (1, 2.0)], 18.0));
        assert_opt(solve(&lp), -36.0, Some(&[2.0, 6.0]));
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + y = 10, x ≥ 3, y ≥ 2 → obj 10.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 10.0));
        lp.add(Constraint::ge(vec![(0, 1.0)], 3.0));
        lp.add(Constraint::ge(vec![(1, 1.0)], 2.0));
        assert_opt(solve(&lp), 10.0, None);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add(Constraint::ge(vec![(0, 1.0)], 5.0));
        lp.add(Constraint::le(vec![(0, 1.0)], 3.0));
        assert_eq!(solve(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0); // max x
        lp.add(Constraint::ge(vec![(0, 1.0), (1, -1.0)], 0.0));
        assert_eq!(solve(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // min x s.t. -x ≤ -5  (i.e. x ≥ 5)
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add(Constraint::le(vec![(0, -1.0)], -5.0));
        assert_opt(solve(&lp), 5.0, Some(&[5.0]));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        lp.add(Constraint::le(vec![(0, 1.0)], 1.0));
        lp.add(Constraint::le(vec![(1, 1.0)], 1.0));
        lp.add(Constraint::le(vec![(0, 1.0), (1, 1.0)], 2.0));
        lp.add(Constraint::le(vec![(0, 1.0), (1, -1.0)], 0.0));
        assert_opt(solve(&lp), -2.0, Some(&[1.0, 1.0]));
    }

    #[test]
    fn transportation_problem() {
        // 2 sources (supply 20, 30) → 2 sinks (demand 25, 25),
        // costs [[2, 4], [3, 1]]; optimum: x00=20, x10=5, x11=25 → 80.
        let mut lp = LinearProgram::new(4); // x00 x01 x10 x11
        for (v, c) in [(0, 2.0), (1, 4.0), (2, 3.0), (3, 1.0)] {
            lp.set_objective(v, c);
        }
        lp.add(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 20.0));
        lp.add(Constraint::eq(vec![(2, 1.0), (3, 1.0)], 30.0));
        lp.add(Constraint::eq(vec![(0, 1.0), (2, 1.0)], 25.0));
        lp.add(Constraint::eq(vec![(1, 1.0), (3, 1.0)], 25.0));
        assert_opt(solve(&lp), 80.0, Some(&[20.0, 0.0, 5.0, 25.0]));
    }

    #[test]
    fn larger_random_lp_agrees_with_feasibility() {
        // A diagonal-dominant feasible system: just checks we terminate
        // and respect all constraints.
        let n = 30;
        let mut lp = LinearProgram::new(n);
        for v in 0..n {
            lp.set_objective(v, 1.0 + (v % 7) as f64);
            lp.add(Constraint::ge(vec![(v, 1.0)], (v % 5) as f64));
            lp.add(Constraint::le(vec![(v, 1.0)], 10.0));
        }
        lp.add(Constraint::ge((0..n).map(|v| (v, 1.0)).collect(), 50.0));
        match solve(&lp) {
            LpOutcome::Optimal { x, .. } => {
                let sum: f64 = x.iter().sum();
                assert!(sum >= 50.0 - 1e-6);
                for (v, &xi) in x.iter().enumerate() {
                    assert!(xi >= (v % 5) as f64 - 1e-6);
                    assert!(xi <= 10.0 + 1e-6);
                }
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
