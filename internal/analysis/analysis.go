// Package analysis is wsuvet's invariant-checking engine: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis plus the
// five project analyzers that turn this repo's load-bearing hot-path
// conventions into machine-checked build failures.
//
// The x/tools framework itself is deliberately not imported: the module
// has no third-party dependencies and this engine needs only what the
// standard library provides (go/ast, go/types, and export data produced
// by `go list -export`, the same source of type information the go
// command feeds to vet).
//
// # Checked invariants
//
//   - poolcheck: pooled values (pool.Slice.Get, sync.Pool.Get, and
//     functions annotated //wsu:owns return) are recycled on every
//     return path or explicitly handed off (//wsu:owns), and are never
//     stored to shared state or returned from unannotated functions.
//   - boundedread: response/request bodies are read through bounded
//     readers (httpx.ReadBounded, io.LimitReader, http.MaxBytesReader);
//     raw io.ReadAll / io.Copy / decoder-on-body slurps are flagged
//     outside internal/httpx and internal/wire.
//   - ctxhygiene: request-path packages (dispatch, core, fleet) never
//     mint context.Background()/context.TODO(); deadlines must derive
//     from the consumer's request context.
//   - detrand: deterministic packages (faulty, repro, adjudicate)
//     never reach for math/rand or wall-clock sampling; randomness and
//     time are injected (xrand, explicit clocks).
//   - noalloc: functions annotated //wsu:noalloc compile without any
//     heap allocation attributed to their bodies, verified against the
//     compiler's own escape analysis (go tool compile -m).
//
// # Annotation grammar
//
//   - "//wsu:owns return" on a function: its pooled result is owned by
//     the caller (the function is an acquire site).
//   - "//wsu:owns a b" on a function: calls transfer ownership of the
//     arguments bound to parameters (or the receiver) named a and b
//     into the callee, which must recycle or hand them off itself.
//   - "//wsu:noalloc" on a function: the escape-analysis gate above.
//   - "//wsu:allow <analyzer>[,<analyzer>] -- <reason>" suppresses
//     diagnostics of the named analyzers on the same line (or, when the
//     comment stands alone, on the following line). The reason is
//     mandatory; a missing reason is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier in diagnostics and in
	// //wsu:allow directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run checks one package, reporting findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message describes the violated invariant.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one loaded package.
type Pass struct {
	// Analyzer is the running check.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Dirs are the module-wide //wsu: directives (ownership facts,
	// noalloc sets, suppressions) collected before any analyzer ran.
	Dirs *Directives

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.reportAt(p.Pkg.Fset.Position(pos), format, args...)
}

// reportAt records a finding at an already-resolved position (noalloc
// findings come from compiler output, not the token.FileSet).
func (p *Pass) reportAt(pos token.Position, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{PoolCheck, BoundedRead, CtxHygiene, DetRand, NoAlloc}
}

// ByName resolves an analyzer name; nil when unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// sortDiags orders diagnostics by file, line, column, then analyzer.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// funcKey identifies a function or method across packages, matching the
// object the type checker resolves at a call site against the object
// the directive collector saw at the declaration. Methods key on the
// receiver's named type; generic instances key on their origin.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// declKey builds the same key from a declaration in pkg.
func declKey(pkg *Package, decl *ast.FuncDecl) string {
	obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	return funcKey(obj)
}

// namedOf unwraps pointers and generic instances down to the named
// type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil && named.Obj() != nil {
		return named
	}
	return nil
}

// calleeOf resolves the *types.Func a call expression invokes (methods
// included), or nil for builtins, conversions, and dynamic calls
// through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.Fn).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pathTail reports whether the import path's last segment is one of
// names. Package-role policies (deterministic packages, request-path
// packages, transport exemptions) key on this so the testdata golden
// packages can opt in by directory name.
func pathTail(path string, names ...string) bool {
	tail := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			tail = path[i+1:]
			break
		}
	}
	for _, n := range names {
		if tail == n {
			return true
		}
	}
	return false
}
