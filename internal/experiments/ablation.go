package experiments

import (
	"fmt"

	"sweepsched/internal/lb"
	"sweepsched/internal/partition"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/stats"
)

// Ablations of the two design choices the algorithms make: the delay range
// (the paper draws X_i uniform on {0..k-1}; why k?) and the processor
// assignment policy (why uniformly random per cell?).

func init() {
	Registry["ablate_delay"] = AblateDelayRange
	Registry["ablate_assign"] = AblateAssignment
}

// AblateDelayRange varies the range R of the random delays X_i ∈ {0..R-1}
// in Algorithm 2. R=1 disables delays (plain level priorities); R=k is the
// paper's choice; larger R over-staggers the directions and inflates the
// critical path. Contention (many copies of a cell in one combined layer)
// falls as R grows, so the sweet spot balances the two — the analysis picks
// R=k because the expected per-layer copy count then drops to O(1).
func AblateDelayRange(cfg Config) error {
	cfg = cfg.withDefaults()
	const k = 24
	w, err := NewWorkload(cfg, "long", k)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "# ablate_delay: delay range R in Algorithm 2 (long, k=%d; paper uses R=k)\n", k)
	tbl := stats.NewTable("m", "R=1(no delay)", "R=k/4", "R=k", "R=2k", "R=4k")
	ranges := []int{1, k / 4, k, 2 * k, 4 * k}
	for _, m := range cfg.Procs {
		inst, err := w.Instance(m)
		if err != nil {
			return err
		}
		// One workspace per processor count, reused across the R × trials
		// grid; priorities are built in its scratch buffer.
		ws := sched.GetWorkspace(inst)
		dst := &sched.Schedule{}
		row := []interface{}{m}
		for ri, R := range ranges {
			R := R
			_, ratio, err := meanMakespanRatio(cfg, inst, 0xab0+uint64(ri), func(r *rng.Source) (*sched.Schedule, error) {
				assign := sched.RandomAssignment(inst.N(), m, r)
				prio := ws.PrioBuf(inst.NTasks())
				delayedLevelPrioritiesInto(prio, inst, R, r)
				if err := sched.ListScheduleInto(ws, dst, inst, assign, prio, nil); err != nil {
					return nil, err
				}
				return dst, nil
			})
			if err != nil {
				ws.Release()
				return err
			}
			row = append(row, ratio)
		}
		ws.Release()
		tbl.AddRow(row...)
	}
	return cfg.render(tbl)
}

// delayedLevelPrioritiesInto fills Γ(v,i) = level_i(v) + X_i, X_i drawn
// uniformly from {0..delayRange-1}, into a caller-provided priority slice;
// trial loops pass the workspace's PrioBuf.
func delayedLevelPrioritiesInto(prio sched.Priorities, inst *sched.Instance, delayRange int, r *rng.Source) {
	if delayRange < 1 {
		delayRange = 1
	}
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		delay := int64(r.Intn(delayRange))
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			prio[base+v] = int64(d.Level[v]) + delay
		}
	}
}

// AblateAssignment compares cell-to-processor assignment policies under
// Algorithm 2: uniform random (the paper's choice), round-robin by cell id,
// contiguous slabs (cheap locality, no randomness), and the multilevel
// block partitioning. Random and round-robin balance load best; slabs and
// blocks trade makespan for interprocessor edges.
func AblateAssignment(cfg Config) error {
	cfg = cfg.withDefaults()
	const k = 24
	w, err := NewWorkload(cfg, "tetonly", k)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "# ablate_assign: assignment policy in Algorithm 2 (tetonly, k=%d)\n", k)
	tbl := stats.NewTable("m", "policy", "ratio", "C1")
	for _, m := range cfg.Procs {
		inst, err := w.Instance(m)
		if err != nil {
			return err
		}
		n := inst.N()
		bs := n / (8 * m)
		if bs < 2 {
			bs = 2
		}
		type policy struct {
			name string
			gen  func(r *rng.Source) (sched.Assignment, error)
		}
		policies := []policy{
			{"random", func(r *rng.Source) (sched.Assignment, error) {
				return sched.RandomAssignment(n, m, r), nil
			}},
			{"roundrobin", func(r *rng.Source) (sched.Assignment, error) {
				a := make(sched.Assignment, n)
				for v := range a {
					a[v] = int32(v % m)
				}
				return a, nil
			}},
			{"slabs", func(r *rng.Source) (sched.Assignment, error) {
				a := make(sched.Assignment, n)
				for v := range a {
					a[v] = int32(v * m / n)
				}
				return a, nil
			}},
			{fmt.Sprintf("blocks(%d)", bs), func(r *rng.Source) (sched.Assignment, error) {
				return w.Assignment(bs, m, r)
			}},
			// Space-filling-curve blocks (Morton order), random processor
			// per block: the cheap deterministic decomposition production
			// codes use.
			{fmt.Sprintf("sfc(%d)", bs), func(r *rng.Source) (sched.Assignment, error) {
				part, nBlocks, err := partition.MortonBlocks(w.Mesh.Centroids, bs)
				if err != nil {
					return nil, err
				}
				return sched.BlockAssignment(part, nBlocks, m, r), nil
			}},
			// Domain decomposition: partition into exactly m balanced parts
			// and map part p to processor p (no randomness in placement).
			// This is what production sweep codes do; it gets slab-like C1
			// with near-perfect balance on any mesh.
			{"partition_m", func(r *rng.Source) (sched.Assignment, error) {
				part, nBlocks, err := w.BlockPartition((n+m-1)/m, 0x517)
				if err != nil {
					return nil, err
				}
				if nBlocks > m {
					return nil, fmt.Errorf("partition_m: %d parts for %d processors", nBlocks, m)
				}
				a := make(sched.Assignment, n)
				for v, b := range part {
					a[v] = b
				}
				return a, nil
			}},
		}
		for pi, pol := range policies {
			pol := pol
			var sumRatio float64
			var sumC1 int64
			for trial := 0; trial < cfg.Trials; trial++ {
				r := rng.New(cfg.Seed ^ 0xac0 ^ uint64(pi*100+trial))
				assign, err := pol.gen(r)
				if err != nil {
					return err
				}
				s, err := runAlg2With(inst, assign, r)
				if err != nil {
					return err
				}
				sumRatio += lb.Ratio(s.Makespan, inst)
				sumC1 += sched.C1(inst, assign, cfg.Workers)
			}
			tbl.AddRow(m, pol.name, sumRatio/float64(cfg.Trials), sumC1/int64(cfg.Trials))
		}
	}
	return cfg.render(tbl)
}

// runAlg2With runs Algorithm 2 with a fixed assignment, drawing its
// priority scratch and kernel state from the shape-keyed workspace pool.
func runAlg2With(inst *sched.Instance, assign sched.Assignment, r *rng.Source) (*sched.Schedule, error) {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	prio := ws.PrioBuf(inst.NTasks())
	delayedLevelPrioritiesInto(prio, inst, inst.K(), r)
	dst := &sched.Schedule{}
	if err := sched.ListScheduleInto(ws, dst, inst, assign, prio, nil); err != nil {
		return nil, err
	}
	return dst, nil
}
