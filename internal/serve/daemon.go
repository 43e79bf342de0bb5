package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"sgxgauge/internal/journal"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/store"
)

// Main is the daemon entry point behind the `sgxgauge serve`
// subcommand: it parses args, binds the listener,
// serves until SIGINT/SIGTERM, then shuts down gracefully — first
// draining in-flight HTTP requests, then waiting for detached runs.
//
// Three deployment shapes share this entry point: a standalone daemon
// (no cluster flags), a coordinator (-coordinator) that farms
// execution to registered workers, and a worker (-worker <URL>) that
// additionally pulls and executes the coordinator's spec batches.
// Any shape may add -store.dir to persist results across restarts.
func Main(args []string) error {
	fs := flag.NewFlagSet("sgxgauge serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8643", "listen address")
	epcPages := fs.Int("epc", sgx.DefaultEPCPages, "EPC size in pages forced onto specs that leave it zero")
	seed := fs.Int64("seed", 1, "base random seed for specs that leave it zero")
	workers := fs.Int("j", 0, "concurrent simulated runs (0 = GOMAXPROCS)")
	cacheN := fs.Int("cache", DefaultCacheEntries, "max cached results")
	drain := fs.Duration("drain", DefaultDrain, "graceful-shutdown budget for in-flight requests (and a worker's in-flight batch)")
	storeDir := fs.String("store.dir", "", "directory for the persistent result store (empty = memory only)")
	storeFsync := fs.Bool("store.fsync", false, "fsync persistent-store writes (durability over write latency)")
	coordinator := fs.Bool("coordinator", false, "serve as sweep-cluster coordinator: farm runs out to registered workers")
	workerFor := fs.String("worker", "", "coordinator base URL to pull and execute spec batches for")
	workerTTL := fs.Duration("worker.ttl", DefaultWorkerTTL, "coordinator only: how long a silent worker keeps its work")
	journalDir := fs.String("journal.dir", "", "directory for the crash-recovery job journal (empty = jobs die with the process)")
	journalFsync := fs.Bool("journal.fsync", false, "fsync journal writes and removals (durability over write latency)")
	maxQueue := fs.Int("admission.max", DefaultMaxQueue, "admission high-water mark: queued specs beyond which new jobs get 429 (a job heavier than the mark gets 413)")
	taskRetries := fs.Int("task.retries", DefaultTaskRetries, "coordinator only: failed attempts before a task is poisoned (negative = poison on first failure)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator && *workerFor != "" {
		return errors.New("sgxgauged: -coordinator and -worker are mutually exclusive")
	}
	if *workerTTL <= 0 {
		return fmt.Errorf("sgxgauged: -worker.ttl must be positive (got %v)", *workerTTL)
	}
	if *drain <= 0 {
		return fmt.Errorf("sgxgauged: -drain must be positive (got %v)", *drain)
	}
	if !*coordinator {
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "worker.ttl" {
				log.Printf("sgxgauged: -worker.ttl has no effect without -coordinator")
			}
		})
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{Fsync: *storeFsync})
		if err != nil {
			return fmt.Errorf("sgxgauged: opening store: %w", err)
		}
		log.Printf("sgxgauged: result store at %s (%d entries)", st.Dir(), st.Len())
	}
	var jl *journal.Journal
	if *journalDir != "" {
		var err error
		jl, err = journal.Open(*journalDir, journal.Options{Fsync: *journalFsync})
		if err != nil {
			return fmt.Errorf("sgxgauged: opening journal: %w", err)
		}
		log.Printf("sgxgauged: job journal at %s", jl.Dir())
	}

	role := "standalone"
	switch {
	case *coordinator:
		role = "coordinator"
	case *workerFor != "":
		role = "worker"
	}
	s := New(Config{
		EPCPages:     *epcPages,
		Seed:         *seed,
		Workers:      *workers,
		CacheEntries: *cacheN,
		Store:        st,
		Coordinator:  *coordinator,
		WorkerTTL:    *workerTTL,
		Journal:      jl,
		Role:         role,
		MaxQueue:     *maxQueue,
		TaskRetries:  *taskRetries,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("sgxgauged: %w", err)
	}
	srv := &http.Server{Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//sgxlint:detached Serve lives for the whole process; its exit is joined via the errc receive in the select below
	go func() { errc <- srv.Serve(ln) }()
	logRole := role
	if *workerFor != "" {
		logRole = "worker for " + *workerFor
	}
	log.Printf("sgxgauged: serving on http://%s (epc=%d pages, seed=%d, %s)", ln.Addr(), *epcPages, *seed, logRole)

	// Replay the journal after the listener is up: healthz holds 503
	// (recovering) until Recover returns, so clients cannot race the
	// replay, while recovered jobs re-enqueue behind the warm store.
	//sgxlint:detached recovery runs once and signals completion through the server's recovered gate (healthz 503 until done)
	go func() {
		if err := s.Recover(); err != nil {
			log.Printf("sgxgauged: journal recovery: %v", err)
		}
	}()

	workerDone := make(chan struct{})
	if *workerFor != "" {
		wk := NewWorker(s, *workerFor, ln.Addr().String())
		wk.Drain = *drain
		//sgxlint:detached worker loop is joined by the workerDone close, received during shutdown below
		go func() {
			defer close(workerDone)
			// Run only returns on ctx cancellation; transient
			// coordinator trouble is retried inside the loop.
			if err := wk.Run(ctx); err != nil {
				log.Printf("sgxgauged: worker loop: %v", err)
			}
		}()
	} else {
		close(workerDone)
	}

	select {
	case err := <-errc:
		return fmt.Errorf("sgxgauged: %w", err)
	case <-ctx.Done():
	}
	log.Printf("sgxgauged: shutting down (draining up to %v)", *drain)
	<-workerDone
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("sgxgauged: shutdown: %w", err)
	}
	s.Drain()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("sgxgauged: %w", err)
	}
	log.Printf("sgxgauged: stopped")
	return nil
}
