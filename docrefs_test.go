package sweepsched_test

// TestDocReferences is the first slice of the documents' gate: every Go
// identifier that README, DESIGN, EXPERIMENTS and the verify skill name in
// backticks must name something in the tree. It reads the declarations
// loadSource (reachability_test.go) parses, plus the top-level functions
// of the test files:
//
//   - pkg.Name and pkg.Type.Member, where pkg is a package of the module
//     and Name is exported (pkg.lower is a metric or a file name);
//   - Type.Member, where Type is capitalized: a declared type, and Member
//     one of its methods or fields, or one of a type it embeds or aliases;
//   - Test*, Benchmark* and Fuzz* names; a trailing * or { (a family
//     written BenchmarkX{A,B}) matches a prefix;
//   - a bare lowerCamel or PascalCase name with no dot (rankPathFor,
//     GetBuilder): some .go file of the tree, a test file included,
//     declares it; in the pattern of a -run or -bench flag, a Test,
//     Benchmark, Fuzz or Example function's name contains it;
//   - repository paths: a whitespace-separated word that begins with
//     internal/, cmd/, bench/, examples/ or testdata/, or ends in .go,
//     .md, .txt, .sh or .json, names a path from the root (a glob
//     matching one) or the trailing part of one in the tree, as
//     sched/io.go and testdata/fuzz/ do;
//   - -flags: a command line in a code span or a fenced block that runs a
//     cmd/ binary (go run ./cmd/<bin> or <bin>) passes it only flags the
//     binary defines through the flag package;
//   - flag values: sweepbench's -exp names all, paper or an id
//     experiments.Names returns, and bench/run.sh's -workload a workload
//     BENCHMARK.json declares (a <placeholder> passes);
//   - metric names: a lowercase token that ends in a suffix made of one of
//     BENCHMARK.json's units (_s, _mb, _us, _frac, …) is a metric the file
//     declares, a bare end-to-end name such as warm_s or a per-layer
//     layer.name such as dag.family_warm_s.
//
// It also holds DESIGN.md and README.md together to designLines, so that
// neither grows back into a history of the code, every citation of a
// DESIGN section — a § number, or a quoted title after a comma — in a Go
// file or in citingDocs to a heading DESIGN.md has (checkDesign), and
// every row EXPERIMENTS.md quotes from the paper-scale run to that run's
// output (checkQuotedRows).

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"sweepsched/internal/experiments"
)

// docFiles are the documents the gate reads. bench/'s own documents belong
// to the benchmark and change with it.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// docHistory is the whole allowlist: a name the documents cite on purpose
// although nothing declares it any more, and why.
var docHistory = map[string]string{
	"Workspace.heaps": "DESIGN §4 records that the kernel's heaps were removed",
	"Workspace.indeg": "DESIGN §4 records that the kernel's indegree array was removed",
	"fillIndeg":       "DESIGN §4 records that the kernel's indegree fill was removed; TestStructure refuses its return",
	"buildAngleset":   "DESIGN §4 records that the aggregated rank build was removed; TestStructure refuses its return",
	"RunProc":         "TestStructure refuses a per-processor step body under this name",
}

// designLines is the most lines DESIGN.md and README.md may have together.
const designLines = 900

// citingDocs are the documents whose DESIGN citations must name a heading:
// the gate's own and the roadmap. CHANGES.md cites the sections a change
// saw, which later changes renumber, and is not read.
var citingDocs = append(slices.Clip(docFiles), "ROADMAP.md")

var (
	designHeading = regexp.MustCompile(`(?m)^#{2,3} (?:(\d+)\. )?(.+)$`)
	sectionCite   = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+(?:\.\d+)*)`)
	titleCite     = regexp.MustCompile(`DESIGN(?:\.md)?, "([^"]+)"`)
)

var (
	fencedBlock  = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	codeSpan     = regexp.MustCompile("`([^`]+)`")
	dottedName   = regexp.MustCompile(`\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	testName     = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*[*{]?`)
	identifier   = regexp.MustCompile(`[A-Za-z_]\w*`)
	camelName    = regexp.MustCompile(`^(?:[a-z][a-z0-9]*|[A-Z][a-z0-9]+)[A-Z]\w*$`)
	testPattern  = regexp.MustCompile(`-(?:run|bench)(?:=|\s+)('[^']*'|\S+)`)
	runnableName = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz|Example)`)
	docPath      = regexp.MustCompile(`^(?:internal|cmd|bench|examples|testdata)/|\.(?:go|md|txt|sh|json)$`)
	shellSep     = regexp.MustCompile(`\|\||&&|[|;]|\s#.*`)
	flagArg      = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:(=)(.*))?$`)
	metricToken  = regexp.MustCompile(`\b[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)*\b`)
	unitWord     = regexp.MustCompile(`^[A-Za-z]+$`)
)

func exported(name string) bool { return unicode.IsUpper([]rune(name)[0]) }

func TestDocReferences(t *testing.T) {
	s := loadSource(t)
	pkgs := map[string]map[string]bool{} // package (its directory's name) -> top-level names
	for _, d := range s.decls {
		if d.recv != "" {
			s.addMember(d.recv, d.name)
			continue
		}
		name := path.Base(d.pkg)
		if pkgs[name] == nil {
			pkgs[name] = map[string]bool{}
		}
		pkgs[name][d.name] = true
	}
	// hasMember follows embedded and aliased types breadth first.
	hasMember := func(typ, member string) bool {
		seen := map[string]bool{typ: true}
		for queue := []string{typ}; len(queue) > 0; queue = queue[1:] {
			members := s.members[queue[0]]
			if members[member] {
				return true
			}
			for m := range members {
				if next, ok := strings.CutPrefix(m, "^"); ok && !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		return false
	}
	names := declaredNames(t)
	var runnable []string // what a -run or -bench pattern matches
	for name := range names {
		if runnableName.MatchString(name) {
			runnable = append(runnable, name)
		}
	}
	paths := treePaths(t)
	pathResolves := func(tok string) bool {
		tok = strings.TrimSuffix(tok, "/")
		if found, _ := filepath.Glob(tok); len(found) > 0 {
			return true
		}
		for _, p := range paths {
			if strings.HasSuffix(p, "/"+tok) {
				return true
			}
		}
		return false
	}
	resolves := func(tok string) bool {
		if prefix := strings.TrimRight(tok, "*{"); prefix != tok {
			for name := range names {
				if strings.HasPrefix(name, prefix) {
					return true
				}
			}
			return false
		}
		part := strings.Split(tok, ".")
		switch _, isType := s.members[part[0]]; {
		case len(part) == 1:
			return names[tok]
		case pkgs[part[0]] != nil:
			if !exported(part[1]) {
				return true // a metric or a file name
			}
			return pkgs[part[0]][part[1]] && (len(part) == 2 || hasMember(part[1], part[2]))
		case !exported(part[0]):
			return true // a value: cfg.Verify, ctx.Err
		case isType:
			return hasMember(part[0], part[1])
		default:
			return !exported(part[1]) // README.md and the like
		}
	}

	bench := readBench(t)
	binFlags := cmdFlags(t)
	const runner = "bench/run.sh"
	// values are the values a command line may give these flags.
	values := map[string]map[string]map[string]bool{
		"sweepbench": {"exp": {"all": true, "paper": true}},
		runner:       {"workload": bench.workloads()},
	}
	for _, id := range experiments.Names() {
		values["sweepbench"]["exp"][id] = true
	}
	// checkFlags reports the flags a command line passes a cmd/ binary that
	// the binary does not define, and the values it gives a flag of values
	// that are not among them.
	checkFlags := func(file string, line int, cmdline string) {
		for _, command := range shellSep.Split(strings.TrimPrefix(strings.TrimSpace(cmdline), "$ "), -1) {
			var bin string
			words := strings.Fields(command)
			for i, word := range words {
				if bin == "" {
					if name := strings.TrimPrefix(strings.TrimPrefix(strings.TrimSuffix(word, "/"), "./cmd/"), "./"); binFlags[name] != nil || name == runner {
						bin = name
					}
					continue
				}
				m := flagArg.FindStringSubmatch(word)
				if m == nil {
					continue
				}
				if binFlags[bin] != nil && !binFlags[bin][m[1]] {
					t.Errorf("%s:%d: %s defines no flag -%s", file, line, bin, m[1])
				}
				valid := values[bin][m[1]]
				value := m[3]
				if m[2] == "" && i+1 < len(words) {
					value = words[i+1]
				}
				if valid != nil && !valid[value] && !strings.HasPrefix(value, "<") {
					t.Errorf("%s:%d: %s -%s %s: no such value", file, line, bin, m[1], value)
				}
			}
		}
	}

	cited := map[string]bool{}
	for _, file := range docFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range fencedBlock.FindAllStringIndex(string(data), -1) {
			first := 1 + strings.Count(string(data[:loc[0]]), "\n")
			for i, cmdline := range strings.Split(string(data[loc[0]:loc[1]]), "\n") {
				checkFlags(file, first+i, cmdline)
			}
		}
		// Blank the fenced blocks, keeping their lines for the positions.
		text := fencedBlock.ReplaceAllStringFunc(string(data), func(b string) string {
			return strings.Repeat("\n", strings.Count(b, "\n"))
		})
		for _, loc := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			span, line := text[loc[2]:loc[3]], 1+strings.Count(text[:loc[0]], "\n")
			checkFlags(file, line, span)
			for _, loc := range testPattern.FindAllStringSubmatchIndex(span, -1) {
				for _, tok := range bareNames(span[loc[2]:loc[3]]) {
					if !slices.ContainsFunc(runnable, func(name string) bool { return strings.Contains(name, tok) }) {
						t.Errorf("%s:%d: no test or benchmark matches `%s`", file, line, tok)
					}
				}
			}
			plain := testPattern.ReplaceAllString(span, " ")
			for _, tok := range slices.Concat(dottedName.FindAllString(span, -1), testName.FindAllString(span, -1), bareNames(plain)) {
				if _, ok := docHistory[tok]; ok {
					cited[tok] = true
				} else if !resolves(tok) {
					t.Errorf("%s:%d: `%s` names nothing in the tree", file, line, tok)
				}
			}
			for _, tok := range strings.Fields(span) {
				if docPath.MatchString(tok) && !pathResolves(tok) {
					t.Errorf("%s:%d: `%s` is no path in the tree", file, line, tok)
				}
			}
			for _, tok := range metricToken.FindAllString(span, -1) {
				if bench.staleMetric(tok) {
					t.Errorf("%s:%d: `%s` is no metric BENCHMARK.json declares", file, line, tok)
				}
			}
		}
	}
	for tok, why := range docHistory {
		if !cited[tok] || resolves(tok) || why == "" {
			t.Errorf("docHistory entry %s: drop it unless a document cites it, nothing declares it and it has a reason", tok)
		}
	}
	checkDesign(t, paths)
	checkQuotedRows(t)
}

// quotedRun is the command line of a fenced block in EXPERIMENTS.md that
// quotes the paper-scale run of one experiment, with the block's
// indentation (a block inside a list item is indented).
var quotedRun = regexp.MustCompile(`^([ \t]*)\$ go run \./cmd/sweepbench -exp (\S+) -scale 1\.0 -trials 2\b`)

// checkQuotedRows reports every line EXPERIMENTS.md quotes under a
// quotedRun command that is not a line of that experiment's section of
// results_full.txt, the output of the same command for every id: a quoted
// table is a selection of the real rows, never a rewording of them.
func checkQuotedRows(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile("results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[string]bool{} // experiment id -> the lines of its section
	for _, section := range strings.Split(string(full), "\n\n") {
		title, _, _ := strings.Cut(section, "\n")
		id, _, ok := strings.Cut(strings.TrimPrefix(title, "# "), ":")
		if !ok || !strings.HasPrefix(title, "# ") {
			continue
		}
		rows[id] = map[string]bool{}
		for _, line := range strings.Split(section, "\n") {
			rows[id][line] = true
		}
	}
	quoted := 0
	for _, loc := range fencedBlock.FindAllStringIndex(string(doc), -1) {
		first := 1 + strings.Count(string(doc[:loc[0]]), "\n")
		lines := strings.Split(string(doc[loc[0]:loc[1]]), "\n")
		for i := 1; i < len(lines)-1; i++ {
			m := quotedRun.FindStringSubmatch(lines[i])
			if m == nil {
				continue
			}
			indent, id := m[1], m[2]
			if rows[id] == nil {
				t.Errorf("EXPERIMENTS.md:%d: results_full.txt has no section %s", first+i, id)
			}
			for j := i + 1; j < len(lines)-1 && quotedRun.FindString(lines[j]) == ""; j++ {
				quoted++
				line, ok := strings.CutPrefix(lines[j], indent)
				if !ok || !rows[id][line] {
					t.Errorf("EXPERIMENTS.md:%d: %q is no line of %s in results_full.txt", first+j, lines[j], id)
				}
			}
		}
	}
	if quoted == 0 {
		t.Error("EXPERIMENTS.md quotes no row of results_full.txt")
	}
}

// checkDesign reports DESIGN.md and README.md if they have more than
// designLines together, and a citation of DESIGN by section number or by
// quoted title, in one of citingDocs or a Go file among paths, that names
// no heading DESIGN.md has.
func checkDesign(t *testing.T, paths []string) {
	read := func(file string) string {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	design := read("DESIGN.md")
	if lines := strings.Count(design+read("README.md"), "\n"); lines > designLines {
		t.Errorf("DESIGN.md and README.md have %d lines together, more than %d", lines, designLines)
	}
	sections, titles := map[string]bool{}, map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		if m[1] != "" {
			sections[m[1]] = true
		}
		titles[m[2]] = true
	}
	files := slices.Clone(citingDocs)
	for _, p := range paths {
		if strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
	}
	for _, file := range files {
		for i, line := range strings.Split(read(file), "\n") {
			for _, m := range sectionCite.FindAllStringSubmatch(line, -1) {
				if !sections[m[1]] {
					t.Errorf("%s:%d: DESIGN.md has no section %s", file, i+1, m[1])
				}
			}
			for _, m := range titleCite.FindAllStringSubmatch(line, -1) {
				if !titles[m[1]] {
					t.Errorf("%s:%d: DESIGN.md has no heading %q", file, i+1, m[1])
				}
			}
		}
	}
}

// benchSpec is what the gate reads of BENCHMARK.json.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

type benchMetric struct{ Name, Unit string }

func readBench(t *testing.T) *benchSpec {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchSpec
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	return &bench
}

// workloads returns the names of the workloads the file declares.
func (b *benchSpec) workloads() map[string]bool {
	names := map[string]bool{}
	for _, w := range b.Workloads {
		names[w.Name] = true
	}
	return names
}

// staleMetric reports whether tok is written like a metric, ending in _
// and the lowercase name of a unit the file uses, and yet is none of the
// metrics the file declares.
func (b *benchSpec) staleMetric(tok string) bool {
	i := strings.LastIndexByte(tok, '_')
	if i < 0 {
		return false
	}
	metricLike := false
	for _, m := range slices.Concat(b.EndToEnd, b.PerLayer) {
		if m.Name == tok {
			return false
		}
		if unitWord.MatchString(m.Unit) && tok[i+1:] == strings.ToLower(m.Unit) {
			metricLike = true
		}
	}
	return metricLike
}

// treePaths returns every path under the root but the hidden ones, with
// forward slashes.
func treePaths(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		paths = append(paths, filepath.ToSlash(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// bareNames returns the lowerCamel and PascalCase identifiers of a code
// span that stand alone: no dot, path separator or flag dash beside them,
// and no * or { after them (a test family, which testName reads).
func bareNames(span string) []string {
	var found []string
	for _, loc := range identifier.FindAllStringIndex(span, -1) {
		before, after := byte(' '), byte(' ')
		if loc[0] > 0 {
			before = span[loc[0]-1]
		}
		if loc[1] < len(span) {
			after = span[loc[1]]
		}
		if tok := span[loc[0]:loc[1]]; camelName.MatchString(tok) && !strings.ContainsRune(".-/", rune(before)) && !strings.ContainsRune("./*{", rune(after)) {
			found = append(found, tok)
		}
	}
	return found
}

// declaredNames returns every name a .go file of the tree declares —
// functions, methods, types, variables, constants, fields and parameters
// — test files and bench/'s included.
func declaredNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(p, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var ids []*ast.Ident
			switch x := n.(type) {
			case *ast.FuncDecl:
				ids = []*ast.Ident{x.Name}
			case *ast.TypeSpec:
				ids = []*ast.Ident{x.Name}
			case *ast.ValueSpec:
				ids = x.Names
			case *ast.Field:
				ids = x.Names
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					for _, e := range x.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							ids = append(ids, id)
						}
					}
				}
			}
			for _, id := range ids {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// cmdFlags returns, for each binary under cmd/, the flags it defines
// through the flag package: the name is the first string literal among a
// flag.X call's first two arguments (flag.Int("k", …), flag.IntVar(&k,
// "k", …)). Every binary also takes -h and -help.
func cmdFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	bins := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(file))
		if bins[bin] == nil {
			bins[bin] = map[string]bool{"h": true, "help": true}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !isIdent(sel.X, "flag") {
				return true
			}
			for _, arg := range call.Args[:min(2, len(call.Args))] {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					bins[bin][name] = true
					break
				}
			}
			return true
		})
	}
	return bins
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
