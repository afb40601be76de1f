package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// NoAlloc verifies //wsu:noalloc annotations against the compiler's
// own escape analysis: the annotated package is recompiled with
// `go tool compile -m` (fed the same export data the loader resolved
// imports with) and any "escapes to heap" / "moved to heap" diagnostic
// positioned inside an annotated function's body fails the check.
//
// This closes the gap TestAllocationCeilings leaves open: it samples a
// few inputs at 0 allocs/op, while the escape analysis proves the
// whole function body allocation-free for every input that stays on
// the analyzed paths. Known cold paths inside an annotated function
// (a pool grow, an error construction) are acknowledged in place with
// //wsu:allow noalloc -- <reason>.
//
// Limitation: an allocation in a helper that the compiler inlines into
// an annotated function is attributed to the helper's own source line,
// outside the annotated span, and is not flagged; annotate the helper
// too if it must stay allocation-free.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "//wsu:noalloc functions pass escape analysis with no heap allocations",
	Run:  runNoAlloc,
}

// escapeLine matches one compiler diagnostic: file:line:col: message.
var escapeLine = regexp.MustCompile(`^(.+?):(\d+):(\d+): (.*)$`)

func runNoAlloc(pass *Pass) error {
	fns := pass.Dirs.NoallocFuncs(pass.Pkg.ImportPath)
	if len(fns) == 0 {
		return nil
	}
	diags, err := escapeDiagnostics(pass.Pkg)
	if err != nil {
		return err
	}
	// The compiler can emit the same escape diagnostic more than once
	// (e.g. when re-analyzing a function for inlining); report each
	// position/message pair a single time.
	seen := map[compilerDiag]bool{}
	for _, d := range diags {
		if !strings.Contains(d.msg, "escapes to heap") && !strings.HasPrefix(d.msg, "moved to heap") {
			continue
		}
		if seen[d] {
			continue
		}
		seen[d] = true
		for _, fn := range fns {
			if filepath.Base(fn.File) != d.file || d.line < fn.StartLine || d.line > fn.EndLine {
				continue
			}
			pass.reportAt(token.Position{Filename: fn.File, Line: d.line, Column: d.col},
				"//wsu:noalloc function %s allocates: %s", fn.Name, d.msg)
			break
		}
	}
	return nil
}

type compilerDiag struct {
	file      string
	line, col int
	msg       string
}

// escapeDiagnostics recompiles pkg with escape-analysis reporting on.
// Invoking the compiler directly (rather than `go build -gcflags=-m`)
// sidesteps the build cache, which swallows -m output on cache hits.
func escapeDiagnostics(pkg *Package) ([]compilerDiag, error) {
	tmp, err := os.MkdirTemp("", "wsuvet-noalloc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var cfg bytes.Buffer
	paths := make([]string, 0, len(pkg.Exports))
	for p := range pkg.Exports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if p == pkg.ImportPath {
			continue
		}
		fmt.Fprintf(&cfg, "packagefile %s=%s\n", p, pkg.Exports[p])
	}
	cfgPath := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgPath, cfg.Bytes(), 0o644); err != nil {
		return nil, err
	}

	args := []string{
		"tool", "compile",
		"-p", pkg.ImportPath,
		"-importcfg", cfgPath,
		"-lang", "go1.24",
		"-m",
		"-o", filepath.Join(tmp, "out.o"),
	}
	args = append(args, pkg.GoFiles...)
	cmd := exec.Command("go", args...)
	cmd.Dir = pkg.Dir
	// The compiler prints -m diagnostics on stdout and errors on
	// stderr; capture both into one stream.
	var combined bytes.Buffer
	cmd.Stdout = &combined
	cmd.Stderr = &combined
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("noalloc: compiling %s: %w\n%s", pkg.ImportPath, err, combined.String())
	}

	var out []compilerDiag
	sc := bufio.NewScanner(&combined)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := escapeLine.FindStringSubmatch(sc.Text())
		if m == nil || strings.HasPrefix(m[1], "<autogenerated>") {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		out = append(out, compilerDiag{file: filepath.Base(m[1]), line: line, col: col, msg: m[4]})
	}
	return out, sc.Err()
}
