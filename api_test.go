package sweepsched

import (
	"bytes"
	"testing"

	"sweepsched/internal/dag"
)

func tinyProblem(t testing.TB, alg Scheduler) (*Problem, *Result) {
	t.Helper()
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Schedule(alg, ScheduleOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestNewProblemFromFamilyShape(t *testing.T) {
	p, err := NewProblemFromFamily("long", 0.01, 8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 8 || p.M() != 16 {
		t.Fatalf("K=%d M=%d", p.K(), p.M())
	}
	if p.Tasks() != p.N()*p.K() {
		t.Fatalf("Tasks=%d, N*K=%d", p.Tasks(), p.N()*p.K())
	}
	b := p.Bounds()
	if b.PerCell != 8 || b.Load <= 0 || b.CriticalPath <= 0 {
		t.Fatalf("bounds %+v", b)
	}
	if len(p.DirectionLevels()) != 8 {
		t.Fatal("DirectionLevels wrong length")
	}
	if len(p.BrokenCycleEdges()) != 8 {
		t.Fatal("BrokenCycleEdges wrong length")
	}
}

func TestNewProblemErrors(t *testing.T) {
	if _, err := NewProblemFromFamily("nosuch", 1, 8, 4, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := NewProblemFromFamily("tetonly", 0.01, 0, 4, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewProblemFromFamily("tetonly", 0.01, 8, 0, 1); err == nil {
		t.Fatal("m=0 accepted")
	}
}

// A mesh without cells has nothing to schedule. It used to make a Problem
// with N() == 0 whose first Schedule divided by zero in the kernel; it is
// refused where instances are made, however the cells arrive: as a mesh,
// through the mesh codec, or as prebuilt DAGs.
func TestNewProblemRefusesZeroCells(t *testing.T) {
	if p, err := NewProblemFromMesh(&Mesh{}, 8, 4); err == nil {
		t.Errorf("empty mesh accepted as a problem with %d cells", p.N())
	}
	// Through the codec an empty mesh must be stopped somewhere: today the
	// decoder refuses it; were it to pass, the constructor has to.
	var buf bytes.Buffer
	if err := EncodeMesh(&buf, &Mesh{Verts: []Vec3{}, Cells: [][4]int32{}}); err == nil {
		if msh, err := DecodeMesh(&buf); err == nil {
			if p, err := NewProblemFromMesh(msh, 8, 4); err == nil {
				t.Errorf("decoded empty mesh accepted as a problem with %d cells", p.N())
			}
		}
	}
	d, err := dag.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblemFromPrebuiltDAGs(nil, []Vec3{{X: 1}}, []*dag.DAG{d}, 4); err == nil {
		t.Error("zero-cell DAG family accepted")
	}
}

func TestScheduleAllAlgorithms(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Schedulers() {
		res, err := p.Schedule(alg, ScheduleOptions{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Metrics.Makespan <= 0 || res.Ratio <= 0 {
			t.Fatalf("%s: bad result %+v", alg, res.Metrics)
		}
	}
}

func TestScheduleWithBlocks(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.02, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	block, err := p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 7, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if block.Metrics.C1 >= cell.Metrics.C1 {
		t.Fatalf("block C1 %d not below cell C1 %d", block.Metrics.C1, cell.Metrics.C1)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p, err := NewProblemFromFamily("long", 0.01, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Schedule(RandomDelays, ScheduleOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Schedule(RandomDelays, ScheduleOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("same seed, different metrics: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestSimulateMatchesMetrics(t *testing.T) {
	p, res := tinyProblem(t, RandomDelaysPriority)
	sim, err := p.Simulate(res)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Steps != res.Metrics.Makespan {
		t.Fatalf("sim steps %d != makespan %d", sim.Steps, res.Metrics.Makespan)
	}
	if sim.TotalMessages != res.Metrics.C1 {
		t.Fatalf("sim messages %d != C1 %d", sim.TotalMessages, res.Metrics.C1)
	}
	if sim.CommRounds != res.Metrics.C2 {
		t.Fatalf("sim rounds %d != C2 %d", sim.CommRounds, res.Metrics.C2)
	}
}

func TestMeshFamilies(t *testing.T) {
	fams := MeshFamilies()
	if len(fams) != 4 {
		t.Fatalf("families %v", fams)
	}
}

func TestRegularGridProblem(t *testing.T) {
	msh := RegularGrid(4, 4, 4)
	p, err := NewProblemFromMesh(msh, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Schedule(Level, ScheduleOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio > 4 {
		t.Fatalf("level ratio %v suspicious on regular grid", res.Ratio)
	}
}

func TestCustomDirections(t *testing.T) {
	msh := RegularGrid(3, 3, 3)
	dirs := []Vec3{{X: 1, Y: 0.2, Z: 0.3}, {X: -1, Y: -0.2, Z: -0.3}}
	p, err := NewProblemFromDirections(msh, dirs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 2 {
		t.Fatalf("K = %d", p.K())
	}
	if _, err := p.Schedule(DFDS, ScheduleOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleVerifyEverySampling checks the per-problem audit
// sampling: with VerifyEvery=3 over 6 runs, exactly runs 0 and 3 are
// audited and the rest counted as skipped; sampling never changes the
// schedules themselves.
func TestScheduleVerifyEverySampling(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := NewStatsCollector()
	opts := ScheduleOptions{Seed: 3, Verify: true, VerifyEvery: 3, Collector: col}
	var sampled []*Result
	for i := 0; i < 6; i++ {
		res, err := p.Schedule(RandomDelaysPriority, opts)
		if err != nil {
			t.Fatal(err)
		}
		sampled = append(sampled, res)
	}
	verified := col.Counter("api.verified").Value()
	skipped := col.Counter("api.verify_skipped").Value()
	if verified != 2 || skipped != 4 {
		t.Fatalf("every=3 over 6 runs: verified=%d skipped=%d, want 2 and 4", verified, skipped)
	}

	// A fresh problem with the default (audit every run) skips nothing,
	// and the schedules match the sampled runs bit for bit.
	p2, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	col2 := NewStatsCollector()
	for i := 0; i < 6; i++ {
		res, err := p2.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 3, Verify: true, Collector: col2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule.Makespan != sampled[i].Schedule.Makespan {
			t.Fatalf("run %d: sampling changed the schedule (makespan %d vs %d)",
				i, res.Schedule.Makespan, sampled[i].Schedule.Makespan)
		}
	}
	if v, s := col2.Counter("api.verified").Value(), col2.Counter("api.verify_skipped").Value(); v != 6 || s != 0 {
		t.Fatalf("default sampling: verified=%d skipped=%d, want 6 and 0", v, s)
	}
}
