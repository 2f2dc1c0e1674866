package oiraid

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test citations must resolve.
var citedDocs = []string{"DESIGN.md", "README.md", "ROADMAP.md"}

var (
	// citation is a test, benchmark or fuzz target named in prose; a
	// trailing * cites every name with that prefix.
	citation = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*\*?`)
	// definition is the declaration of one in a test file.
	definition = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*)\(`)
)

// TestDocsCiteExistingTests: every Test*, Benchmark* and Fuzz* name the
// documents cite is declared in a test file of the tree, bench/ included, so
// a renamed or deleted test cannot leave a citation behind. A planned test is
// described, not named, until it exists.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definition.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		if !wild {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range citedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			for _, name := range citation.FindAllString(line, -1) {
				if !resolves(name) {
					t.Errorf("%s:%d cites %s, which no test file declares", doc, n+1, name)
				}
			}
		}
	}
}
