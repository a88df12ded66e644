// Package fixture pins the internal/oracle lint posture: the oracle
// sits below the determinism boundary (serving-stack imports are
// violations) but is exempt from the performance rules (its hot-path
// panic is legal — reference models panic loudly on internal drift by
// design). lint_test.go loads this file parse-only under both
// lattecc/internal/oracle and lattecc/internal/sim and compares the
// finding sets.
package fixture

import (
	_ "net/http"

	_ "lattecc/internal/harness"
	_ "lattecc/internal/resultstore"
	_ "lattecc/internal/server"
)

// tick panics outside a constructor/validation path: a panic-audit
// violation in cycle-level packages, legal in the oracle.
func tick() {
	panic("hot-path panic")
}
