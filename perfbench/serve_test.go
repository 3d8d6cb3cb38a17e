package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"tycos/internal/daemon"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// testSpec is a small serve configuration for tests.
func testSpec(t *testing.T) serveSpec {
	t.Helper()
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	sp := s.Serve
	sp.LivePairs, sp.FrozenPairs, sp.Points, sp.FrozenParamSets = 1, 1, 300, 1
	return sp
}

// inTempDir runs the test from an empty directory, where the benchmark
// writes its .bench_build output.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptedDaemonResponseCountsAsFailed(t *testing.T) {
	sp := testSpec(t)
	x, y := pairSeries(newTestRand(), 400)
	q := searchReq{X: liveName(0, "x"), Y: liveName(0, "y"), SMin: sp.Search.SMin, SMax: sp.Search.SMax,
		TDMax: sp.Search.TDMax, Sigma: sp.Search.Sigma, Variant: "lmn", Seed: 1, MaxEvaluations: 1000}
	good, err := expectedBody(q, x, y, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		status int
		source string
		body   []byte
		failed int
	}{
		{"intact", 200, "computed", good, 0},
		{"truncated body", 200, "computed", good[:len(good)/2], 1},
		{"unknown field", 200, "computed", append([]byte(`{"bogus":1,`), good[1:]...), 1},
		{"wrong pair", 200, "computed", bytes.Replace(good, []byte(`"live00_y"`), []byte(`"live01_y"`), 1), 1},
		{"server error", 500, "computed", good, 1},
		{"missing source", 200, "", good, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if c.source != "" {
					w.Header().Set("X-Tycosd-Source", c.source)
				}
				w.WriteHeader(c.status)
				w.Write(c.body)
			}))
			defer ts.Close()
			r := &run{metrics: map[string]metric{}}
			e := &serveEnv{sp: sp, ts: ts, live: []*liveData{{x: x, y: y, sent: 300}}, frozenBody: map[string][]byte{}}
			d := newDriver(r, e)
			defer d.close()
			d.searchOne(time.Now(), event{kind: evLive, pair: 0, param: 1, evals: 1000}, &reqSample{})
			if r.attempted != 1 || r.failed != c.failed {
				t.Fatalf("attempted %d failed %d, want 1 and %d", r.attempted, r.failed, c.failed)
			}
		})
	}
}

func TestDaemonResponsesMatchDirectSearch(t *testing.T) {
	inTempDir(t)
	sp := testSpec(t)
	r := &run{seed: 5, metrics: map[string]metric{}}
	e, err := newServeEnv(r, sp, newServeInputs(r.seed, sp), daemon.Config{})
	if e != nil {
		defer e.close(false)
	}
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(r, e)
	defer d.close()
	d.keep = func(int) bool { return true }
	// Live searches, an ingest between them, and journal hits on the frozen
	// pair warmed during set-up.
	evs := []event{
		{kind: evLive, pair: 0, param: 1, evals: 1000},
		{kind: evIngest, pair: 0},
		{kind: evLive, pair: 0, param: 2, evals: 1500},
		{kind: evFrozen, pair: 0, param: 0},
		{kind: evFrozen, pair: 0, param: 0},
	}
	st := stepResult{}
	start := time.Now()
	for _, ev := range evs {
		var s reqSample
		if ev.kind == evIngest {
			d.write(start, ev, &s)
		} else {
			d.searchOne(start, ev, &s)
		}
		st.samples = append(st.samples, s)
	}
	d.checkLive([]stepResult{st})
	if r.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.checkErrs)
	}
	hits, checked := 0, 0
	for _, s := range st.samples {
		if s.source == "journal" {
			hits++
		}
		if s.liveCheck != nil {
			checked++
		}
	}
	if hits != 2 || checked != 2 {
		t.Fatalf("journal hits %d, live responses re-checked %d; want 2 and 2", hits, checked)
	}
}

// fakeStep builds a step of rate searches at the given latency whose last
// request finished one second after the step began, drainMS after its
// schedule ended, so its achieved rate is exactly rate.
func fakeStep(rate float64, latMS float64, drainMS float64) stepResult {
	drain := time.Duration(drainMS * float64(time.Millisecond))
	st := stepResult{rate: rate, duration: time.Second - drain, elapsed: time.Second}
	for i := 0; i < int(rate); i++ {
		st.samples = append(st.samples, reqSample{kind: evLive, latency: time.Duration(latMS * float64(time.Millisecond))})
	}
	return st
}

func TestMaxRateInterpolatesAtFirstFailure(t *testing.T) {
	const limit = 100
	for _, c := range []struct {
		name  string
		steps []stepResult
		want  float64
	}{
		{"all pass", []stepResult{fakeStep(10, 20, 0), fakeStep(20, 50, 0)}, 20},
		// Halfway between 50 ms and 150 ms: halfway between 20 and 30 rps.
		{"p90 crosses", []stepResult{fakeStep(10, 20, 0), fakeStep(20, 50, 0), fakeStep(30, 150, 0)}, 25},
		// A long drain fails a step whose p90 is fine.
		{"backlog", []stepResult{fakeStep(20, 50, 0), fakeStep(30, 40, 150)}, 25},
		// Steps past the first failure do not count, even if they pass.
		{"first failure wins", []stepResult{fakeStep(20, 50, 0), fakeStep(30, 150, 0), fakeStep(40, 20, 0)}, 25},
		{"none pass", []stepResult{fakeStep(10, 200, 0)}, 5},
	} {
		if got := maxRate(c.steps, limit); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}
