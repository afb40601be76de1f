package analysis

import (
	"go/ast"
	"strconv"
)

// DetRand keeps the deterministic packages deterministic: faulty,
// repro and adjudicate reproduce paper experiments from a seed, so
// any reach for ambient nondeterminism — math/rand's global state or
// wall-clock sampling via time.Now — silently invalidates a replayed
// run. Randomness comes from injected xrand generators and time from
// explicit clocks; importing math/rand (v1 or v2) or calling time.Now
// in these packages is flagged. The journal package is held to the
// same bar for a different reason: replay must be a pure function of
// the bytes on disk, so entry timestamps are caller-stamped, never
// sampled inside the codec or writer.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "deterministic packages use injected randomness and clocks",
	Run:  runDetRand,
}

func runDetRand(pass *Pass) error {
	if !pathTail(pass.Pkg.ImportPath, "faulty", "repro", "adjudicate", "journal") {
		return nil
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"deterministic package imports %s; use an injected xrand generator", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			if fn == nil {
				return true
			}
			if isPkgFunc(fn, "time", "Now") {
				pass.Reportf(call.Pos(),
					"deterministic package samples the wall clock; inject the time instead")
			}
			return true
		})
	}
	return nil
}
