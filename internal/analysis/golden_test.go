package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"wsupgrade/internal/analysis"
)

// The golden harness runs analyzers over golden packages and checks their
// diagnostics against // want "regex" comments in the sources — a
// dependency-free analogue of x/tools' analysistest.
//
// A want comment asserts diagnostics on its own line:
//
//	io.ReadAll(r) // want "without a bound"
//	ctx() // want "context.Background" "rooted at a fresh context"
//
// Each quoted string is a regular expression matched against
// "analyzer: message". Every diagnostic must be claimed by a want on
// its line and every want must claim a diagnostic; anything unmatched
// fails the test.

var wantRe = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")
var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one quoted regex of a want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	src  string
	used bool
}

// runGolden analyzes pattern (a package directory relative to dir) with
// the given analyzers and compares diagnostics against the package's
// want comments.
func runGolden(t *testing.T, dir, pattern string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	diags, err := analysis.Run(dir, []string{pattern}, analyzers)
	if err != nil {
		t.Fatalf("analysis.Run(%s): %v", pattern, err)
	}
	wants, err := collectWants(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatalf("collecting want comments: %v", err)
	}

	for _, d := range diags {
		got := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		if !claim(wants, d.Pos.Filename, d.Pos.Line, got) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, got)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.src)
		}
	}
}

// claim marks the first unclaimed expectation on file:line whose regex
// matches got.
func claim(wants []*expectation, file string, line int, got string) bool {
	for _, w := range wants {
		if w.used || w.line != line || w.file != file {
			continue
		}
		if w.re.MatchString(got) {
			w.used = true
			return true
		}
	}
	return false
}

// collectWants scans every .go file of the package directory.
func collectWants(pkgDir string) ([]*expectation, error) {
	abs, err := filepath.Abs(pkgDir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(abs, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			for _, q := range wantArgRe.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want string %s: %w", path, i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %w", path, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re, src: pat})
			}
		}
	}
	return wants, nil
}
