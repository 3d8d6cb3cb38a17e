// Command tycosd is the always-on TYCOS daemon: an HTTP server that ingests
// time series and answers multi-scale time-delay correlation searches, built
// to run unattended under an init system or container runtime.
//
// Usage:
//
//	tycosd -addr :8723 [-journal results.jsonl] [-fsync] \
//	       [-workers N] [-queue N] [-shed reject|degrade] \
//	       [-maxevals N] [-search-timeout 30s] [-drain-timeout 30s] \
//	       [-trace events.jsonl] [-trace-sample 0.1] \
//	       [-slowlog 2s] [-slowlog-file slow.jsonl] [-sample-interval 5s]
//
// Endpoints:
//
//	GET  /healthz    liveness — 200 while the process runs
//	GET  /readyz     readiness — 503 while draining or journal-degraded
//	GET  /statusz    JSON snapshot of queue, series, journal and counters
//	GET  /metrics    Prometheus text exposition (latency/queue histograms,
//	                 counters, runtime gauges) for any standard scraper
//	POST /v1/series  {"name": "rain", "values": [..]} appends points
//	POST /v1/search  {"x": "rain", "y": "collisions", ...} searches a pair
//
// Telemetry: -trace streams every observed search event as JSONL;
// -trace-sample R stamps that fraction of search requests with a
// deterministic trace ID (returned in the X-Tycosd-Trace header and carried
// on every event line the request causes). -slowlog D writes one JSONL line
// with the full span tree of any search request slower than D to
// -slowlog-file (stderr by default). -sample-interval paces the runtime
// gauge sampler (goroutines, heap, GC pause, queue depth).
//
// Search responses carry an X-Tycosd-Source header saying how they were
// produced: "computed" (fresh search), "journal" (crash-safe replay of an
// earlier identical request) or "degraded" (sliding-PCC pre-screen served
// under overload with -shed degrade).
//
// A SIGTERM or SIGINT drains gracefully: the listener stops admitting,
// queued and in-flight searches finish, the journal is flushed, and the
// process exits 0. If the drain exceeds -drain-timeout the process exits 1.
//
// Exit status: 0 after a graceful drain, 1 on startup or drain failure,
// 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tycos/internal/daemon"
	"tycos/internal/faultinject"
	"tycos/internal/obs"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the daemon behind an injectable front, like cmd/tycos: tests drive
// it with custom argv and buffers (the chaos harness additionally forks real
// processes to kill them).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tycosd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:8723", "listen address (host:port; :0 picks a free port)")
		journal  = fs.String("journal", "", "journal completed search results to this JSONL file and replay them across restarts")
		fsync    = fs.Bool("fsync", false, "fsync the journal after every record (survives power loss, not just crashes)")
		compact  = fs.Int64("compact-bytes", 0, "auto-compact the journal when it exceeds this size and is mostly garbage (0 = never)")
		workers  = fs.Int("workers", 0, "concurrent search workers (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		shed     = fs.String("shed", "reject", "overload policy: reject (429 + Retry-After) or degrade (sliding-PCC pre-screen)")
		retryAft = fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		attempts = fs.Int("retry-attempts", 3, "attempts for transient journal errors")
		retryB   = fs.Duration("retry-base", 10*time.Millisecond, "first retry backoff (doubles per attempt, jittered)")
		maxEvals = fs.Int("maxevals", 0, "cap every request's evaluation budget (0 = uncapped)")
		searchTO = fs.Duration("search-timeout", 0, "cap every request's wall-clock budget (0 = uncapped)")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before exiting 1")
		seed     = fs.Int64("seed", 1, "default search seed and retry-jitter seed")
		maxBody  = fs.Int64("max-body", 0, "request body size limit in bytes (0 = 32 MiB)")

		traceOut    = fs.String("trace", "", "write a JSONL trace of observed search events to this file")
		traceSample = fs.Float64("trace-sample", 0, "fraction of search requests stamped with a request trace ID (0..1)")
		slowlog     = fs.Duration("slowlog", 0, "log the span tree of any search request slower than this (0 = off)")
		slowlogFile = fs.String("slowlog-file", "", "slow-search JSONL destination (default stderr)")
		sampleInt   = fs.Duration("sample-interval", 5*time.Second, "runtime gauge sampling interval (negative = startup sample only)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	cfg := daemon.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		RetryAfter:          *retryAft,
		JournalPath:         *journal,
		JournalFsync:        *fsync,
		JournalCompactBytes: *compact,
		RetryAttempts:       *attempts,
		RetryBase:           *retryB,
		Seed:                *seed,
		MaxEvalsCap:         *maxEvals,
		TimeoutCap:          *searchTO,
		MaxBodyBytes:        *maxBody,
		TraceSample:         *traceSample,
		SlowLogThreshold:    *slowlog,
		SampleInterval:      *sampleInt,
	}
	switch *shed {
	case "reject":
		cfg.Shed = daemon.ShedReject
	case "degrade":
		cfg.Shed = daemon.ShedDegrade
	default:
		fmt.Fprintf(stderr, "tycosd: unknown -shed policy %q (want reject or degrade)\n", *shed)
		return exitUsage
	}

	// The trace observer and slow-log destination are files owned by this
	// process; both are flushed/closed on every exit path via defers, which
	// run after the drain has finished the searches that feed them.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "tycosd:", err)
			return exitFailure
		}
		tw := obs.NewTraceWriter(f)
		cfg.Observer = tw
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintln(stderr, "tycosd: trace:", err)
			}
			f.Close()
		}()
	}
	if *slowlog > 0 {
		cfg.SlowLog = stderr
		if *slowlogFile != "" {
			f, err := os.Create(*slowlogFile)
			if err != nil {
				fmt.Fprintln(stderr, "tycosd:", err)
				return exitFailure
			}
			cfg.SlowLog = f
			defer f.Close()
		}
	}

	// TYCOS_FAULTS arms the fault-injection registry in a forked process —
	// the chaos harness's only way in. Unset, this is a no-op.
	if err := faultinject.ArmFromEnv("TYCOS_FAULTS"); err != nil {
		fmt.Fprintln(stderr, "tycosd:", err)
		return exitUsage
	}

	srv, err := daemon.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "tycosd:", err)
		return exitFailure
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "tycosd:", err)
		srv.Close()
		return exitFailure
	}
	// The resolved address line is a contract: harnesses passing -addr :0
	// parse it to find the port.
	fmt.Fprintf(stdout, "tycosd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	//lint:allow gopanic net/http recovers handler panics per connection; Serve returns on Shutdown/Close
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful drain: stop admitting (close the listener and refuse new
		// requests), finish queued and in-flight searches, flush the journal.
		stop() // a second signal kills the process the usual way
		fmt.Fprintln(stdout, "tycosd: draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(dctx); err != nil {
			fmt.Fprintln(stderr, "tycosd: shutdown:", err)
			srv.Close()
			return exitFailure
		}
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintln(stderr, "tycosd:", err)
			return exitFailure
		}
		fmt.Fprintln(stdout, "tycosd: drained, exiting")
		return exitOK
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "tycosd:", err)
			srv.Close()
			return exitFailure
		}
		return exitOK
	}
}
