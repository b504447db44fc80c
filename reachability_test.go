package sweepsched_test

// The reachability gate and the structure checks: one parse of every
// non-test .go file of the module and of bench/ (its own module, a root
// like cmd/ and examples/), no type checker — a go/types pass with the
// source importer takes longer than the rest of tier-1 together.
//
// TestInternalReachability fails on any package-level func, type, var,
// const or method declared in a non-test file under internal/ (the two
// frozen refimpl packages excepted) that is not reachable, through
// references in non-test files, from a declaration outside internal/ — a
// binary, the public API, an example, the benchmark — or from an entry of
// reachabilityAllow. References are resolved syntactically: an identifier
// the file's own scopes do not bind refers to its package's declaration of
// that name, pkg.Name resolves through the file's imports, and x.M refers
// to every method named M (only where it is called, if some struct also
// has a field M). That errs towards "reachable", never towards a false
// failure.
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
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The four reasons an unreferenced declaration may stay.
const (
	oracle   = "auditor/oracle entry point"
	reserved = "paper helper reserved by a ROADMAP item"
	iface    = "satisfies an interface"
	input    = "input or probe of another declaration's tests"
)

// reachabilityAllow is the whole allowlist: declaration (package path under
// internal/, then the name or Type.Method), class, reason. An entry that
// is referenced after all, or names nothing, fails the test too.
var reachabilityAllow = map[string][2]string{
	"verify.DifferentialList":         {oracle, "unit-step kernel against sched/refimpl, bit for bit"},
	"verify.DifferentialComm":         {oracle, "comm-delay kernel against sched/refimpl"},
	"verify.DifferentialAngleset":     {oracle, "angleset kernel against the reference run on expanded inputs"},
	"verify.DifferentialAnglesetComm": {oracle, "angleset kernel with a comm delay against the same reference"},
	"verify.DifferentialGreedy":       {oracle, "greedy preprocessing against sched/refimpl"},
	"verify.DifferentialResidual":     {oracle, "residual rescheduling against sched/refimpl"},
	"verify.DifferentialWeighted":     {oracle, "weighted event core against sched/refimpl"},
	"verify.C2Ref":                    {oracle, "the C2 definition the kernel's and the simulator's counts are held to"},
	"verify.Tasks":                    {oracle, "audit of raw proc/start slices: the only form that can express a split cell"},
	"leakcheck.Check":                 {oracle, "goroutine-leak audit at the end of every executor, fault and service test"},
	"coloring.Validate":               {oracle, "properness check every colouring produced in coloring's tests passes through"},
	"core.ChernoffUpper":              {reserved, "5b: Lemma 1(a)'s upper-tail bound, for the theorems-as-tests ensemble"},
	"core.F":                          {reserved, "5b: Lemma 1(b)'s load threshold F(μ, p)"},
	"core.ExpectedMaxLoadBound":       {reserved, "5b: Corollary 2(b)'s expected maximum bin load (and equation (3)'s H under it)"},
	"opt.ExactGivenAssignment":        {reserved, "5b: true optimum under a fixed assignment, for true-ratio tests"},
	"opt.TrueRatio":                   {reserved, "5b: makespan over the enumerated optimum on tiny instances"},
	"kba.IdealMakespan":               {reserved, "1b: the closed-form KBA stage count to print beside the measured makespan"},
	"kba.SchedulePipelined":           {reserved, "parked DOG item: the only depth-of-graph angleset ordering in the tree"},
	"dag.Build":                       {input, "one-direction DAGs for the sched, heuristics and trace tests"},
	"sched.ListScheduleComm":          {input, "allocating comm-delay plan the angleset, verify and validate-bench tests start from"},
	"sched.ListScheduleResidual":      {input, "allocating residual plan the epoch, kernel-oracle and verify tests start from"},
	"sched.ListScheduleWeighted":      {input, "allocating weighted plan the Validate benchmarks and weighted tests start from"},
	"sched.UniformWeights":            {input, "the all-ones weights under which the weighted tests must reproduce the unit kernel"},
	"quadrature.AnglesetsByOctant":    {input, "octant groups for the heuristics, kba and sched angleset tests and benchmarks"},
	"quadrature.RandomSphere":         {input, "unrelated directions, §2's non-geometric stress input"},
	"quadrature.Axes2D":               {input, "planar directions for the sign-grouping tests"},
	"quadrature.SNWeights":            {input, "the weighted S_N set transport's tests integrate the flux with"},
	"rng.Source.Fork":                 {input, "the order-dependent derivation Substream's tests and doc are written against"},
	"geom.AABB.Extent":                {input, "mesh's generator tests measure the box they asked for with it"},
	"faults.Plan.CrashOnly":           {input, "precondition of the crash-only plans in the faults and transport tests"},
	"service.Server.Collector":        {input, "counter probe of the service tests (cache tiers, coalescing, admission)"},
}

// decl is one package-level declaration or method in a non-test file.
type decl struct {
	key   string // "dag.FromEdges", "dag.DAG.Validate"; outside internal/ the full import path leads
	pkg   string // import path
	name  string // identifier, or the method's name
	recv  string // receiver type name of a method
	file  string // slash path from the repository root
	line  int
	gated bool  // under internal/, outside refimpl: must be reachable
	uses  []use // what its type, value or body mentions
}

// use is one reference: pkg.name for an identifier resolved to a package,
// or name alone for a selection x.name on a value.
type use struct {
	pkg, name string
	call      bool // x.name(...)
}

// source is every non-test declaration of the module and of bench/.
type source struct {
	decls   []*decl
	imports map[string][]string // file -> import paths
	fields  map[string]bool     // every struct field name
}

const modulePath = "sweepsched"

// loadSource parses the tree under the working directory, the repository
// root when the root package's tests run.
func loadSource(t *testing.T) *source {
	t.Helper()
	const root = "."
	s := &source{imports: map[string][]string{}, fields: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Hidden directories hold build products (.bench_build, .git),
			// bench/out the benchmark's results.
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		s.index(fset, filepath.ToSlash(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func recvTypeName(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
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
		// being named: roots like everything outside internal/.
		d.gated = strings.HasPrefix(rel, "internal/") && !strings.Contains(rel, "/refimpl/") &&
			id.Name != "_" && (recv != "" || id.Name != "init" && id.Name != "main")
		s.decls = append(s.decls, d)
		return d
	}
	// walk collects the references under n into d.
	walk := func(d *decl, n ast.Node) {
		selected := map[*ast.Ident]bool{} // the Sel of a selector: not a scope lookup
		calls := map[ast.Expr]bool{}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
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
				u := use{name: n.Sel.Name, call: calls[n]}
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

func TestInternalReachability(t *testing.T) {
	s := loadSource(t)
	product, live := s.reachable(nil), s.reachable(reachabilityAllow)
	declared := map[string]bool{}
	var dead []string
	for _, d := range s.decls {
		declared[d.key] = true
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
		if why[0] != oracle && why[0] != reserved && why[0] != iface && why[0] != input || why[1] == "" {
			t.Errorf("allowlist entry %s needs one of the four classes and a reason", key)
		}
	}
	if len(reachabilityAllow) > 40 {
		t.Errorf("allowlist has %d entries, at most 40: delete code, not the limit", len(reachabilityAllow))
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations under internal/ that no binary, API call, example or benchmark reaches — delete each, or allowlist it with a class and a reason:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}

// TestStructure refuses the duplication the executor and kernel refactors
// removed. The modelled machine (internal/machine) has the only RunProc
// step body; transport.SolveOn is the only code that alternates a sweep
// with UpdatePhi; faults.Engine is the only fault-epoch loop, and
// internal/procrun, its wire side, may not route, reschedule or iterate on
// its own; every list engine pops from the rank bitmaps, so a task heap or
// a separate indegree array outside refimpl is a second ready set.
func TestStructure(t *testing.T) {
	s := loadSource(t)
	var bodies, loops []string
	declared := map[string]int{}
	for _, d := range s.decls {
		at := fmt.Sprintf("%s:%d", d.file, d.line)
		if d.recv != "" && d.name == "RunProc" {
			bodies = append(bodies, d.file)
		}
		if d.recv == "" {
			declared[d.name]++
		}
		if (d.name == "heap4" || d.name == "fillIndeg") && !strings.Contains(d.file, "/refimpl/") {
			t.Errorf("%s: %s declared outside refimpl", at, d.name)
		}
		for _, u := range d.uses {
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
	if len(bodies) != 1 || !strings.HasPrefix(bodies[0], "internal/machine/") {
		t.Errorf("RunProc step bodies in %v, want exactly one, in internal/machine", bodies)
	}
	if len(loops) != 1 {
		t.Errorf("UpdatePhi is called from %v, want the one SolveOn loop", loops)
	}
	for _, name := range []string{"epochEnd", "endCrash"} {
		if declared[name] != 1 {
			t.Errorf("%s declared %d times, want once (faults.Engine's epoch loop)", name, declared[name])
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
