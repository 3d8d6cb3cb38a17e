package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"tycos/internal/knn"
	"tycos/internal/mi"
)

// probeBudget bounds the wall time of one probe at one window size, and
// probeBatch is the least time one timed batch should take, so that clock
// reads and spans stay negligible against the calls they time.
const (
	probeBudget = 150 * time.Millisecond
	probeBatch  = 500 * time.Microsecond
)

// probe times fn, which performs `calls` calls of one public function per
// invocation, in batches of repeated invocations until probeBudget is
// spent, and returns the median per-call time in nanoseconds. Each batch is
// one span.
func probe(r *run, name string, size, calls int, fn func()) float64 {
	op := r.spans.newOp()
	attrs := map[string]string{"probe": name, "size": fmt.Sprint(size)}
	var per []float64
	pprof.Do(context.Background(), pprof.Labels("workload", r.workload, "probe", name), func(context.Context) {
		t0 := time.Now()
		fn() // warm-up, and the estimate that sizes a batch
		reps := int(probeBatch/max(time.Since(t0), time.Nanosecond)) + 1
		start := time.Now()
		for len(per) < 5 || time.Since(start) < probeBudget {
			s := r.spans.start("probe."+name, op, 0, attrs)
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				fn()
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls*reps))
			s.end()
		}
	})
	return median(per)
}

// ladder measures the k-NN and MI rungs on windows of xs/ys at the given
// sizes and sets the per-call metrics as the mean over sizes: the kd-tree and
// KSG rungs the batch variants use, and the grid and incremental rungs the
// incremental variants use.
func ladder(r *run, xs, ys []float64, sizes []int) error {
	acc := map[string][]float64{}
	const k = mi.DefaultK
	for _, m := range sizes {
		if m+1 > len(xs) {
			return fmt.Errorf("ladder: window %d longer than the series (%d)", m, len(xs))
		}
		wx, wy := xs[:m], ys[:m]
		pts := make([]knn.Point, m)
		for i := range pts {
			pts[i] = knn.Point{X: wx[i], Y: wy[i]}
		}

		{
			tree, err := knn.NewEngine("kdtree", knn.Config{K: k})
			if err != nil {
				return err
			}
			acc["knn.kdtree_build_us"] = append(acc["knn.kdtree_build_us"],
				probe(r, "kdtree_build", m, 1, func() { tree.Build(pts, wx, wy) })/1e3)
			acc["knn.kdtree_query_ns"] = append(acc["knn.kdtree_query_ns"],
				probe(r, "kdtree_query", m, m, func() {
					for i := 0; i < m; i++ {
						tree.SelfKNearest(i, k)
					}
				}))
			acc["knn.count_within_ns"] = append(acc["knn.count_within_ns"],
				probe(r, "count_within", m, 2*m, func() {
					for i := 0; i < m; i++ {
						tree.CountX(wx[i], 0.25)
						tree.CountY(wy[i], 0.25)
					}
				}))
			est := mi.NewKSG(k, mi.BackendKDTree)
			acc["mi.ksg_estimate_us"] = append(acc["mi.ksg_estimate_us"],
				probe(r, "ksg_estimate", m, 1, func() {
					if _, err := est.Estimate(wx, wy); err != nil {
						panic(err)
					}
				})/1e3)
		}

		grid := knn.NewGridFor(pts, k)
		for i, p := range pts {
			grid.Insert(i, p)
		}
		acc["knn.grid_move_ns"] = append(acc["knn.grid_move_ns"],
			probe(r, "grid_move", m, m, func() {
				for i, p := range pts {
					grid.Remove(i)
					grid.Insert(i, p)
				}
			}))
		buf := make([]knn.Neighbor, 0, k+1)
		acc["knn.grid_query_ns"] = append(acc["knn.grid_query_ns"],
			probe(r, "grid_query", m, m, func() {
				for i, p := range pts {
					buf = grid.KNearestInto(p, k, i, buf[:0])
				}
			}))

		inc, err := mi.NewIncrementalFrom(wx, wy, k)
		if err != nil {
			return err
		}
		// One slide step moves the window by one sample: drop the oldest
		// point, add the next, re-read the estimate. The window walks along
		// the series and wraps back to its start.
		next := m
		acc["mi.inc_slide_us"] = append(acc["mi.inc_slide_us"],
			probe(r, "inc_slide", m, 64, func() {
				for s := 0; s < 64; s++ {
					if next >= len(xs) {
						ids := make([]int, m)
						for i := range ids {
							ids[i] = i
						}
						inc.Reload(ids, xs[:m], ys[:m])
						next = m
					}
					inc.Remove(next - m)
					inc.Insert(next, xs[next], ys[next])
					if _, err := inc.MI(); err != nil {
						panic(err)
					}
					next++
				}
			})/1e3)
		ids := make([]int, m)
		for i := range ids {
			ids[i] = i
		}
		acc["mi.inc_reload_us"] = append(acc["mi.inc_reload_us"],
			probe(r, "inc_reload", m, 1, func() {
				inc.Reload(ids, wx, wy)
				if _, err := inc.MI(); err != nil {
					panic(err)
				}
			})/1e3)
		next = m
	}
	for name, vals := range acc {
		unit := "ns"
		if name[len(name)-2:] == "us" {
			unit = "us"
		}
		r.set(name, mean(vals), unit)
	}
	return nil
}
