package manetp2p

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentsCiteWhatExists keeps the documents' citations of claims
// and tests pointing at code that exists.
//
// A claim is cited in one of two forms: in the first column of a
// Markdown table whose header's first cell is "claim", or in prose as
// the word "claim" or "claims" followed by backticked names joined by
// commas, "and" or "or" ("claims `a`, `b` and `c`"). Every claim so
// cited in EXPERIMENTS.md or DESIGN.md must be a row of claims_test.go's
// table, and every row must be cited in EXPERIMENTS.md.
//
// A test is cited by its function name: Test, Benchmark, Fuzz or
// Example followed by an upper-case letter or an underscore. Every such
// name in EXPERIMENTS.md, DESIGN.md or README.md must be a function
// declared in some _test.go file of the repository.
func TestDocumentsCiteWhatExists(t *testing.T) {
	known := map[string]bool{}
	for _, c := range claims {
		known[c.name] = true
	}
	cited := map[string]bool{}
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md"} {
		for _, name := range claimCitations(t, readDoc(t, doc)) {
			if !known[name] {
				t.Errorf("%s cites claim %q, which claims_test.go does not hold", doc, name)
			}
			if doc == "EXPERIMENTS.md" {
				cited[name] = true
			}
		}
	}
	for _, c := range claims {
		if !cited[c.name] {
			t.Errorf("claim %q is cited nowhere in EXPERIMENTS.md", c.name)
		}
	}

	funcs := testFunctions(t)
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md"} {
		reported := map[string]bool{}
		for _, name := range testName.FindAllString(readDoc(t, doc), -1) {
			if !funcs[name] && !reported[name] {
				reported[name] = true
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
	}
}

var (
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_][A-Za-z0-9_]*`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)\(`)
	backticked = regexp.MustCompile("`([^`]+)`")
	claimProse = regexp.MustCompile("(?i)\\bclaims?\\s+(`[^`]+`(?:(?:,|,?\\s+and|,?\\s+or)\\s+`[^`]+`)*)")
)

func readDoc(t *testing.T, name string) string {
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// claimCitations returns the claim names doc cites, in either form.
func claimCitations(t *testing.T, doc string) []string {
	var names []string
	inClaimTable, inTable := false, false
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		first := strings.TrimSpace(strings.SplitN(line[1:], "|", 2)[0])
		if !inTable {
			inTable, inClaimTable = true, strings.EqualFold(first, "claim")
			continue
		}
		if inClaimTable && !strings.HasPrefix(first, "---") {
			m := backticked.FindStringSubmatch(first)
			if m == nil {
				t.Errorf("claim table row names no claim: %s", line)
				continue
			}
			names = append(names, m[1])
		}
	}
	prose := strings.Join(strings.Fields(doc), " ")
	for _, m := range claimProse.FindAllStringSubmatch(prose, -1) {
		for _, n := range backticked.FindAllStringSubmatch(m[1], -1) {
			names = append(names, n[1])
		}
	}
	return names
}

// testFunctions returns the names of the test, benchmark, fuzz and
// example functions every _test.go file in the repository declares.
func testFunctions(t *testing.T) map[string]bool {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(b), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
