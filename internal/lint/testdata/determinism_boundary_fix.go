// Package fixture seeds determinism-boundary violations for
// lint_test.go: a cycle-level package reaching up into the serving
// stack. The module imports cannot resolve under the standalone test
// importer, so the boundary tests parse this file without type-checking
// — the import rule is deliberately syntactic.
package fixture

import (
	"net/http"

	"lattecc/internal/harness"
	"lattecc/internal/resultstore"
	"lattecc/internal/server"
)

// touch keeps the imports referenced so the fixture would also survive
// a future type-checking loader.
func touch() {
	_ = http.MethodGet
	_ = harness.RunRequest{}
	_ = resultstore.Options{}
	_ = server.Config{}
}
