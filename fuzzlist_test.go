package sweepsched

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFuzzTargetsListed holds fuzz.sh — the one list of fuzz targets that
// ci.sh and `make fuzz` run — to the tree: every func Fuzz* in a _test.go
// file of this module is listed with its package directory, and every
// listed target exists.
func TestFuzzTargetsListed(t *testing.T) {
	script, err := os.ReadFile("fuzz.sh")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(Fuzz\w+) (\.\S*)$`).FindAllStringSubmatch(string(script), -1) {
		listed[m[1]+" "+m[2]] = true
	}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module (bench/) or no Go package
			}
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		if pkg == "./." {
			pkg = "."
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]+" "+pkg] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing, stale []string
	for k := range declared {
		if !listed[k] {
			missing = append(missing, k)
		}
	}
	for k := range listed {
		if !declared[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("fuzz targets missing from fuzz.sh (add a \"Fuzz... ./pkg\" line):\n  %s", strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("fuzz.sh lists targets that do not exist:\n  %s", strings.Join(stale, "\n  "))
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets: the walk is broken")
	}
}
