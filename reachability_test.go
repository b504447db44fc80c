package sweepsched_test

// The reachability gate and the structure checks: one parse of every
// non-test .go file of the module and of bench/ (its own module, a root
// like cmd/), plus the Example functions of the root package's tests, no
// type checker — a go/types pass with the source importer takes longer
// than the rest of tier-1 together.
//
// TestInternalReachability fails on any package-level func, type, var,
// const or method declared in a non-test file under internal/ (the two
// frozen refimpl packages excepted) or in the root package that is not
// reachable, through references in non-test files, from a binary under
// cmd/, the benchmark, an Example of the root package, or an entry of
// reachabilityAllow. A root name a kept signature mentions is reached
// through that signature. References are resolved syntactically: an
// identifier the file's own scopes do not bind refers to its package's
// declaration of that name, pkg.Name resolves through the file's imports,
// and x.M refers to every method named M (only where it is called, if some
// struct also has a field M). That errs towards "reachable", never towards
// a false failure.
//
// TestStructure holds what ci.sh used to grep for.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The two reasons an unreferenced declaration may stay. A helper only its
// own package's tests use belongs in that package's _test.go files.
const (
	oracle = "auditor/oracle entry point"
	input  = "input or probe of another package's tests"
)

// reachabilityAllow is the whole allowlist: declaration (package path under
// internal/, or sweepsched for the root package, then the name or
// Type.Method), class, reason. An entry that is referenced after all, or
// names nothing, fails the test too.
var reachabilityAllow = map[string][2]string{
	"verify.Differential":          {oracle, "a step-core rule against the sched/refimpl kernel its fields pick, bit for bit"},
	"verify.DifferentialGreedy":    {oracle, "greedy preprocessing against sched/refimpl"},
	"verify.DifferentialWeighted":  {oracle, "weighted event core against sched/refimpl"},
	"verify.C2Ref":                 {oracle, "the C2 definition the kernel's and the simulator's counts are held to"},
	"verify.Tasks":                 {oracle, "audit of raw proc/start slices: the only form that can express a split cell"},
	"leakcheck.Check":              {oracle, "goroutine-leak audit at the end of every executor, fault and service test"},
	"coloring.Validate":            {oracle, "properness check every colouring produced in coloring's tests passes through"},
	"quadrature.AnglesetsByOctant": {input, "octant groups for the heuristics and sched angleset tests and benchmarks"},
	"quadrature.SNWeights":         {input, "the weighted S_N set transport's tests integrate the flux with"},
	"faults.Plan.CrashOnly":        {input, "precondition of the crash-only plans in the faults and transport tests"},
}

// decl is one package-level declaration or method in a non-test file, or
// a root Example.
type decl struct {
	key   string // "dag.FromEdges", "dag.DAG.Validate"; outside internal/ the full import path leads
	pkg   string // import path
	name  string // identifier, or the method's name
	recv  string // receiver type name of a method
	file  string // slash path from the repository root
	line  int
	gated bool  // under internal/ outside refimpl, or in the root package: must be reachable
	uses  []use // what its type, value or body mentions
}

// use is one reference: pkg.name for an identifier resolved to a package,
// or name alone for a selection x.name on a value.
type use struct {
	pkg, name string
	call      bool // x.name(...)
	set       bool // x.name = ... (or ++, --): written, not read
}

// source is every non-test declaration of the module and of bench/, and
// the root package's Examples.
type source struct {
	decls   []*decl
	mains   []string            // files of a package main
	imports map[string][]string // file -> import paths
	fields  map[string]bool     // every struct field name
	// members maps a type's name to what a selector on its values may name
	// besides its methods: struct fields, interface methods, and "^T" for a
	// type T it embeds, aliases or is defined as. Types of one name in
	// several packages share an entry (the doc gate's Type.Member lookup).
	members map[string]map[string]bool
}

const modulePath = "sweepsched"

// loadSource parses the tree under the working directory, the repository
// root when the root package's tests run.
func loadSource(t *testing.T) *source {
	t.Helper()
	const root = "."
	s := &source{imports: map[string][]string{}, fields: map[string]bool{}, members: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if skipDir(p, name) {
				return filepath.SkipDir
			}
			return nil
		}
		test := strings.HasSuffix(name, "_test.go")
		if !strings.HasSuffix(name, ".go") || test && filepath.Dir(p) != root {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		if test {
			// Of a test file only the Examples count: go test runs them and
			// checks their output, as a binary is run.
			f.Decls = slices.DeleteFunc(f.Decls, func(d ast.Decl) bool {
				fd, ok := d.(*ast.FuncDecl)
				return !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Example")
			})
		}
		s.index(fset, filepath.ToSlash(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// skipDir reports whether a walk from the repository root leaves out the
// directory: hidden ones hold build products (.bench_build, .git), bench/out
// the benchmark's results.
func skipDir(p, name string) bool {
	return p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out")
}

func recvTypeName(fd *ast.FuncDecl) string { return baseTypeName(fd.Recv.List[0].Type) }

// baseTypeName names the type e denotes, without pointer, package or type
// arguments: "" for a type literal.
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// index records one file's declarations and what each mentions.
func (s *source) index(fset *token.FileSet, rel string, f *ast.File) {
	pkg := path.Join(modulePath, path.Dir(rel))
	if f.Name.Name == "main" {
		s.mains = append(s.mains, rel)
	}
	gatedFile := (strings.HasPrefix(rel, "internal/") && !strings.Contains(rel, "/refimpl/") || pkg == modulePath) &&
		!strings.HasSuffix(rel, "_test.go")
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		ipath, _ := strconv.Unquote(im.Path.Value)
		local := path.Base(ipath)
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = ipath
		s.imports[rel] = append(s.imports[rel], ipath)
	}
	// Objects the parser bound to a package-level declaration of this file;
	// any other bound identifier is local and refers to nothing gated. (The
	// parser's per-file resolution, Ident.Obj, is deprecated in favour of
	// go/types but still filled in, and it is all this needs.)
	topLevel := map[any]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			topLevel[d] = true
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				topLevel[sp] = true
			}
		}
	}
	add := func(id *ast.Ident, recv string) *decl {
		key := strings.TrimPrefix(pkg, modulePath+"/internal/") + "."
		if recv != "" {
			key += recv + "."
		}
		d := &decl{key: key + id.Name, pkg: pkg, name: id.Name, recv: recv, file: rel, line: fset.Position(id.Pos()).Line}
		// init, main and the blank identifier are run or evaluated without
		// being named: roots like cmd/, bench/ and the Examples.
		d.gated = gatedFile && id.Name != "_" && (recv != "" || id.Name != "init" && id.Name != "main")
		s.decls = append(s.decls, d)
		return d
	}
	// walk collects the references under n into d.
	walk := func(d *decl, n ast.Node) {
		selected := map[*ast.Ident]bool{} // the Sel of a selector: not a scope lookup
		calls, set := map[ast.Expr]bool{}, map[ast.Expr]bool{}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					set[l] = true
				}
			case *ast.IncDecStmt:
				set[n.X] = true
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						s.fields[id.Name] = true
					}
				}
			case *ast.CallExpr:
				calls[n.Fun] = true
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				u := use{name: n.Sel.Name, call: calls[n], set: set[n]}
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
					u.pkg = imports[x.Name]
				}
				d.uses = append(d.uses, u)
			case *ast.Ident:
				if !selected[n] && (n.Obj == nil || topLevel[n.Obj.Decl]) {
					d.uses = append(d.uses, use{pkg: pkg, name: n.Name, call: calls[n]})
				}
			}
			return true
		})
	}
	// Only what a declaration is made of is walked, not the name it
	// declares — nor a method's receiver, which names its type without
	// using it: a type only its own methods mention is unreachable.
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = recvTypeName(d)
			}
			fn := add(d.Name, recv)
			walk(fn, d.Type)
			if d.Body != nil {
				walk(fn, d.Body)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					walk(add(sp.Name, ""), sp.Type)
					s.addMembers(sp.Name.Name, sp.Type)
				case *ast.ValueSpec:
					// Every name of one spec shares its type and values.
					for _, id := range sp.Names {
						v := add(id, "")
						if sp.Type != nil {
							walk(v, sp.Type)
						}
						for _, x := range sp.Values {
							walk(v, x)
						}
					}
				}
			}
		}
	}
}

// addMember records that a selector on the named type may name member.
func (s *source) addMember(typ, member string) {
	if s.members[typ] == nil {
		s.members[typ] = map[string]bool{}
	}
	s.members[typ][member] = true
}

// addMembers records a type declaration's fields, interface methods and the
// types it embeds or stands for.
func (s *source) addMembers(name string, typ ast.Expr) {
	var fields *ast.FieldList
	switch x := typ.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		s.addMember(name, "^"+baseTypeName(typ))
		return
	}
	s.addMember(name, "^") // declared, if with no members
	for _, f := range fields.List {
		for _, id := range f.Names {
			s.addMember(name, id.Name)
		}
		if len(f.Names) == 0 {
			s.addMember(name, "^"+baseTypeName(f.Type))
		}
	}
}

// reachable marks every declaration that the roots — all that is not
// gated, and the gated declarations allow names — reach through uses.
func (s *source) reachable(allow map[string][2]string) map[*decl]bool {
	byName := map[[2]string][]*decl{} // (import path, name), and ("", method name)
	for _, d := range s.decls {
		k := [2]string{d.pkg, d.name}
		if d.recv != "" {
			k[0] = ""
		}
		byName[k] = append(byName[k], d)
	}
	live := map[*decl]bool{}
	var queue []*decl
	mark := func(d *decl) {
		if !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range s.decls {
		if _, ok := allow[d.key]; ok || !d.gated {
			mark(d)
		}
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range d.uses {
			if u.pkg == "" && !u.call && s.fields[u.name] {
				continue // x.name read or written, not called: the field
			}
			for _, t := range byName[[2]string{u.pkg, u.name}] {
				mark(t)
			}
		}
	}
	return live
}

// rootNames is the ceiling on the root package's exported names —
// functions, methods, types and constants, as go doc lists them. The public
// surface grows only by raising it, in the change that needs the name.
const rootNames = 64

func TestInternalReachability(t *testing.T) {
	s := loadSource(t)
	product, live := s.reachable(nil), s.reachable(reachabilityAllow)
	declared := map[string]bool{}
	var dead []string
	exportedRoot := 0
	for _, d := range s.decls {
		declared[d.key] = true
		if d.gated && d.pkg == modulePath && exported(d.name) && (d.recv == "" || exported(d.recv)) {
			exportedRoot++
		}
		if _, ok := reachabilityAllow[d.key]; ok && product[d] {
			t.Errorf("allowlist entry %s is reachable from non-test code: drop it", d.key)
		}
		if !live[d] {
			dead = append(dead, fmt.Sprintf("%s (%s:%d)", d.key, d.file, d.line))
		}
	}
	for key, why := range reachabilityAllow {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no declaration", key)
		}
		if why[0] != oracle && why[0] != input || why[1] == "" {
			t.Errorf("allowlist entry %s needs a class, oracle or input (of another package's tests), and a reason", key)
		}
	}
	if len(reachabilityAllow) > 20 {
		t.Errorf("allowlist has %d entries, at most 20: delete code, not the limit", len(reachabilityAllow))
	}
	if exportedRoot > rootNames {
		t.Errorf("the root package exports %d names, at most %d: a new name needs a caller in cmd/ or bench/ or an Example, and the ceiling raised with it",
			exportedRoot, rootNames)
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations under internal/ or in the root package that no binary, benchmark or Example reaches — delete each, or allowlist it with a class and a reason:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}

// TestStructure refuses the duplication the executor and kernel refactors
// removed, and a package main outside cmd/ and bench/, a program only
// compiled, never run. The modelled machine (internal/machine) has the
// only Step body, and no per-processor RunProc body exists anywhere. The
// body is stepped by two drivers only, each between its own barriers: the
// fault engine's epoch loop (its modelled Ranks, RunStep), which every
// in-process solve and simulation runs — a fault-free one is the engine
// with an empty plan — and a procrun worker's step frame (onStep); the
// machine's step is reached only through Step. The machine's one other
// loop is the flat sweep (Sweep), which runs a layout whose traffic a
// stepped epoch already counted and has nothing left to find out. Step and
// Sweep compute a flux by one helper, taskFlux, and nothing else calls it;
// nothing under internal/ but taskFlux reads a cell balance's Denom, save
// the serial solve (transport's sweepOnce), the reference every executor
// is held to bit for bit — so a third loop, under any name, cannot compute
// a flux unseen. transport.SolveOn is the only code that alternates a
// sweep with UpdatePhi; faults.Engine is the only fault-epoch loop, and
// internal/procrun, its wire side, may not route, reschedule or iterate on
// its own; every list engine pops from the rank bitmaps, so a task heap or
// a separate indegree array outside refimpl is a second ready set. The
// unit-step core takes per-task inputs only: the angleset kernels expand
// theirs first, so a second rank build (buildAngleset) or a partition
// carried into the core's run state is a second input form.
func TestStructure(t *testing.T) {
	s := loadSource(t)
	var bodies, loops, fluxCallers, balances, drivers, stepCallers []string
	declared := map[string]int{}
	for _, d := range s.decls {
		at := fmt.Sprintf("%s:%d", d.file, d.line)
		if d.recv != "" && (d.name == "Step" || d.name == "RunProc") {
			bodies = append(bodies, d.key)
		}
		if d.recv == "" {
			declared[d.name]++
		}
		if (d.name == "heap4" || d.name == "fillIndeg" || d.name == "buildAngleset") && !strings.Contains(d.file, "/refimpl/") {
			t.Errorf("%s: %s declared outside refimpl", at, d.name)
		}
		for _, u := range d.uses {
			if u.name == "taskFlux" && !slices.Contains(fluxCallers, d.key) {
				fluxCallers = append(fluxCallers, d.key)
			}
			if u.call && u.pkg == "" && u.name == "Step" && !slices.Contains(drivers, d.key) {
				drivers = append(drivers, d.key)
			}
			if u.call && u.pkg == "" && u.name == "step" && strings.HasPrefix(d.file, "internal/machine/") && !slices.Contains(stepCallers, d.key) {
				stepCallers = append(stepCallers, d.key)
			}
			if u.pkg == "" && u.name == "Denom" && !u.set && strings.HasPrefix(d.file, "internal/") && !slices.Contains(balances, d.key) {
				balances = append(balances, d.key)
			}
			if !u.call || u.pkg != "" && !strings.HasPrefix(u.pkg, modulePath) {
				continue // not a call, or a call into the standard library
			}
			if u.name == "UpdatePhi" {
				loops = append(loops, at)
			}
			switch u.name {
			case "Split", "Out", "NewOutbox", "UpdatePhi", "OnSend", "Reschedule", "RebuildFull":
				if strings.HasPrefix(d.file, "internal/procrun/") {
					t.Errorf("%s: %s calls %s: internal/procrun routes, reschedules or iterates on its own", at, d.key, u.name)
				}
			}
		}
	}
	if len(bodies) != 1 || bodies[0] != "machine.Machine.Step" {
		t.Errorf("step bodies %v, want exactly one, internal/machine's Step, and no RunProc", bodies)
	}
	if len(loops) != 1 {
		t.Errorf("UpdatePhi is called from %v, want the one SolveOn loop", loops)
	}
	slices.Sort(fluxCallers)
	if !slices.Equal(fluxCallers, []string{"machine.Machine.Sweep", "machine.Machine.step"}) {
		t.Errorf("taskFlux is used in %v, want the step body and the flat sweep, machine.Machine.step and Sweep", fluxCallers)
	}
	slices.Sort(drivers)
	if !slices.Equal(drivers, []string{"faults.modelled.RunStep", "procrun.worker.onStep"}) {
		t.Errorf("Machine.Step is called from %v, want the fault engine's modelled ranks (faults.modelled.RunStep) and a worker's step frame (procrun.worker.onStep) only", drivers)
	}
	if !slices.Equal(stepCallers, []string{"machine.Machine.Step"}) {
		t.Errorf("the machine's step is called from %v, want Step only", stepCallers)
	}
	slices.Sort(balances)
	if !slices.Equal(balances, []string{"machine.Machine.taskFlux", "transport.sweepOnce"}) {
		t.Errorf("a cell balance's Denom is read in %v, want machine.Machine.taskFlux (the machine's one flux) and transport.sweepOnce (the serial reference) only", balances)
	}
	for _, name := range []string{"epochEnd", "endCrash"} {
		if declared[name] != 1 {
			t.Errorf("%s declared %d times, want once (faults.Engine's epoch loop)", name, declared[name])
		}
	}
	for _, typ := range []string{"stepRule", "prelude", "rankq"} {
		for _, field := range []string{"aggregated", "groups", "groupFloor", "dirGroup"} {
			if s.members[typ][field] {
				t.Errorf("the step core's %s carries %s: the angleset partition ends at the expansion", typ, field)
			}
		}
	}
	for _, file := range s.mains {
		if !strings.HasPrefix(file, "cmd/") && !strings.HasPrefix(file, "bench/") {
			t.Errorf("%s is a package main outside cmd/ and bench/: a usage example is an Example in the root package's tests, where go test runs it", file)
		}
	}
	for file, paths := range s.imports {
		for _, ipath := range paths {
			if ipath == "container/heap" && !strings.Contains(file, "/refimpl/") {
				t.Errorf("%s imports container/heap outside refimpl", file)
			}
		}
	}
}
