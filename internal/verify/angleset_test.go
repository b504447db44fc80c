package verify_test

// Audit and differential-oracle coverage for angleset-aggregated
// schedules: the auditor must accept genuine aggregated output, reject
// seeded corruptions (including the wrong-octant placement that only an
// independent DAG rebuild can see), and the differential oracles must
// agree with the frozen reference on expanded inputs.

import (
	"strings"
	"testing"

	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// randomAnglesets draws a random valid partition of k directions into
// at most maxA anglesets.
func randomAnglesets(k, maxA int, r *rng.Source) [][]int32 {
	of := make([]int, k)
	for i := range of {
		of[i] = r.Intn(maxA)
	}
	buckets := make([][]int32, maxA)
	for i := 0; i < k; i++ {
		buckets[of[i]] = append(buckets[of[i]], int32(i))
	}
	var groups [][]int32
	seen := make([]bool, maxA)
	for i := 0; i < k; i++ {
		if a := of[i]; !seen[a] {
			seen[a] = true
			groups = append(groups, buckets[a])
		}
	}
	return groups
}

// aggSchedule builds an aggregated schedule on the given partition.
func aggSchedule(t *testing.T, inst *sched.Instance, groups [][]int32, aggRel []int32, seed uint64) *sched.Schedule {
	t.Helper()
	r := rng.New(seed)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	s := &sched.Schedule{}
	if err := sched.ListScheduleAnglesetInto(ws, s, inst, assign, groups, nil, aggRel); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAnglesetAuditAccepts: a genuinely aggregated schedule (octant
// partition, per-angleset releases) passes the full audit including the
// independent per-direction DAG rebuild.
func TestAnglesetAuditAccepts(t *testing.T) {
	inst := meshInstance(t, 4, 8, 4, 9)
	groups := quadrature.GroupBySign(inst.Dirs)
	aggRel := make([]int32, len(groups))
	for a := range aggRel {
		aggRel[a] = int32(a % 3)
	}
	s := aggSchedule(t, inst, groups, aggRel, 31)
	if err := verify.Schedule(inst, s, verify.Opts{Anglesets: groups, Release: aggRel}); err != nil {
		t.Fatalf("auditor rejects a genuine aggregated schedule: %v", err)
	}
}

// TestAnglesetAuditRejectsWrongOctant is the seeded-corruption test of
// the ISSUE: share each octant's representative DAG across its whole
// octant *without* orientation refinement on a jittered mesh whose
// octants are known-inconsistent. The aggregated kernel then happily
// builds a schedule that is feasible for the corrupted family — the
// plain audit cannot object, because inst.DAGs is the corrupted family
// — but the angleset audit rebuilds every member direction's true DAG
// with the frozen reference builder and must reject the placement.
func TestAnglesetAuditRejectsWrongOctant(t *testing.T) {
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.2, Seed: 5})
	dirs, err := quadrature.Octant(24)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 4)
	if err != nil {
		t.Fatal(err)
	}
	groups := quadrature.GroupBySign(dirs)
	for _, g := range groups {
		rep := inst.DAGs[g[0]]
		for _, i := range g {
			inst.DAGs[i] = rep // unsound: no orientation-consistency check
		}
	}
	s := aggSchedule(t, inst, groups, nil, 17)

	// The in-family audit is blind to the corruption: the schedule is
	// feasible for inst.DAGs by construction.
	if err := verify.Schedule(inst, s, verify.Opts{}); err != nil {
		t.Fatalf("plain audit should accept (the family itself is corrupted): %v", err)
	}
	err = verify.Schedule(inst, s, verify.Opts{Anglesets: groups})
	if err == nil {
		t.Fatal("angleset audit accepted a wrong-octant placement")
	}
	if !strings.Contains(err.Error(), "true DAG") {
		t.Fatalf("diagnostic %q does not name the true-DAG violation", err)
	}
}

// TestAnglesetAuditErrors: option misuse and seeded violations of the
// partition/release contracts are rejected with named diagnostics.
func TestAnglesetAuditErrors(t *testing.T) {
	inst := meshInstance(t, 3, 4, 3, 2)
	groups := quadrature.GroupBySign(inst.Dirs)
	s := aggSchedule(t, inst, groups, nil, 7)

	cases := []struct {
		name string
		opts verify.Opts
		want string
	}{
		{"per-angleset release without partition", verify.Opts{Release: []int32{0, 0, 0, 0}}, "covers 4 of"},
		{"overlapping partition", verify.Opts{Anglesets: [][]int32{{0, 1}, {1, 2, 3}}}, "more than one"},
		{"missing direction", verify.Opts{Anglesets: [][]int32{{0, 1, 2}}}, "not covered"},
		{"empty angleset", verify.Opts{Anglesets: [][]int32{{0, 1, 2, 3}, {}}}, "empty"},
		{"release floor violated", verify.Opts{Anglesets: groups,
			Release: []int32{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}[:len(groups)]}, "release"},
		{"release length mismatch", verify.Opts{Anglesets: groups, Release: []int32{1}}, "delays for"},
	}
	for _, tc := range cases {
		err := verify.Schedule(inst, s, tc.opts)
		if err == nil {
			t.Fatalf("%s: audit accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: diagnostic %q missing substring %q", tc.name, err, tc.want)
		}
	}
}

// TestDifferentialAngleset: angleset rules agree with the
// frozen per-direction reference on the expanded inputs, across mesh
// and synthetic instances, random partitions, priorities, releases and
// comm delays — and agreeing rejections of invalid inputs count as a
// match.
func TestDifferentialAngleset(t *testing.T) {
	instances := []*sched.Instance{
		meshInstance(t, 3, 8, 4, 3),
		syntheticInstance(t, 60, 6, 3, 8),
	}
	r := rng.New(0xD1FF)
	for ii, inst := range instances {
		n, k := inst.N(), inst.K()
		for trial := 0; trial < 10; trial++ {
			groups := randomAnglesets(k, 1+r.Intn(k), r)
			a := len(groups)
			aggPrio := make(sched.Priorities, n*a)
			for i := range aggPrio {
				aggPrio[i] = int64(r.Intn(30))
			}
			var aggRel []int32
			if trial%2 == 1 {
				aggRel = make([]int32, a)
				for i := range aggRel {
					aggRel[i] = int32(r.Intn(4))
				}
			}
			assign := sched.RandomAssignment(n, inst.M, r)
			if err := verify.Differential(inst, assign, sched.Rule{Prio: aggPrio, Release: aggRel, Anglesets: groups}); err != nil {
				t.Fatalf("inst %d trial %d: %v", ii, trial, err)
			}
			if err := verify.Differential(inst, assign, sched.Rule{Prio: aggPrio, CommDelay: r.Intn(3), Anglesets: groups}); err != nil {
				t.Fatalf("inst %d trial %d comm: %v", ii, trial, err)
			}
		}
		// Agreeing rejection: an overlapping partition fails in both the
		// kernel and the expansion, which the oracle reports as a match.
		assign := sched.RandomAssignment(n, inst.M, r)
		bad := [][]int32{{0, 1}, append([]int32{1}, int32(k-1))}
		if err := verify.Differential(inst, assign, sched.Rule{Anglesets: bad}); err != nil {
			t.Fatalf("inst %d: agreeing rejection reported as divergence: %v", ii, err)
		}
	}
}
