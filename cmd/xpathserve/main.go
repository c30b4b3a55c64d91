// Command xpathserve serves XPath evaluation over HTTP: the query-service
// front-end on top of the document store, with bounded admission in front
// of the Gottlob/Koch/Pichler engines.
//
//	xpathserve -store corpus/ -addr :8080 -workers 4 -queue 64
//	xpathserve -data state/ -addr :8080
//
// With -store the corpus is read-only at the persistence layer: a
// directory of *.xml files (keyed by file name) or a binary snapshot
// written by `xpath -savestore`. With -data the corpus is a durable
// mutable directory (checksummed snapshot + write-ahead log): it is
// recovered on start — a torn log tail from a crash truncates to the last
// durable prefix — and PUT/DELETE /doc/{id} mutations survive restarts.
// SIGTERM/SIGINT drains gracefully: admission stops (new requests answer
// 503), in-flight evaluations finish, the log is compacted into a fresh
// snapshot, then the listener closes.
//
// Endpoints: POST /query, POST /batch, GET /explain, GET /stats,
// GET /healthz, PUT/DELETE /doc/{id}, POST /snapshot — see the server
// package documentation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	xpath "repro"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		storePath = flag.String("store", "", "read-only corpus: directory of *.xml files or a snapshot file")
		dataDir   = flag.String("data", "", "durable mutable corpus directory (snapshot + write-ahead log)")
		fsync     = flag.String("fsync", "always", "WAL fsync policy for -data: always (every mutation) or never (OS-paced)")
		workers   = flag.Int("workers", 1, "admission worker pool size")
		queue     = flag.Int("queue", 0, "admission queue depth (0: 2×workers); a full queue answers 429")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request timeout (queue wait + evaluation); expiry cancels the evaluation")
		maxSteps  = flag.Int64("maxsteps", 0, "per-evaluation step fuel (0: unlimited); exhaustion answers 422. On the compiled engine a step is one VM block entry: the main block once, each predicate block once per candidate")
		maxCard   = flag.Int("maxcard", 0, "per-evaluation result-cardinality cap (0: unlimited); exceeding answers 422")
		engName   = flag.String("engine", "auto", "default evaluation engine for requests that name none (auto: compiled)")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	)
	flag.Parse()
	if err := run(*addr, *storePath, *dataDir, *fsync, *workers, *queue, *timeout, *maxSteps, *maxCard, *engName, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "xpathserve:", err)
		os.Exit(1)
	}
}

func run(addr, storePath, dataDir, fsync string, workers, queue int, timeout time.Duration, maxSteps int64, maxCard int, engName string, drainWait time.Duration) error {
	if (storePath == "") == (dataDir == "") {
		return errors.New("exactly one of -store (read-only corpus) or -data (durable directory) is required")
	}
	eng, ok := xpath.EngineByName(engName)
	if !ok {
		return fmt.Errorf("unknown engine %q", engName)
	}

	var st *xpath.Store
	var durable *xpath.DurableStore
	if dataDir != "" {
		var sync xpath.SyncPolicy
		switch fsync {
		case "always":
			sync = xpath.SyncAlways
		case "never":
			sync = xpath.SyncNever
		default:
			return fmt.Errorf("unknown -fsync policy %q (want always or never)", fsync)
		}
		var err error
		durable, err = xpath.OpenStore(dataDir, xpath.DurableOptions{Sync: sync})
		if err != nil {
			return err
		}
		defer durable.Close()
		st = durable.Store()
	} else {
		var err error
		st, err = server.LoadCorpus(storePath)
		if err != nil {
			return err
		}
	}

	srv := server.New(server.Config{
		Store:         st,
		Durable:       durable,
		Workers:       workers,
		QueueDepth:    queue,
		Timeout:       timeout,
		MaxSteps:      maxSteps,
		MaxResultCard: maxCard,
		DefaultEngine: eng,
	})
	hs := &http.Server{Addr: addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		mode := "read-only"
		if durable != nil {
			mode = fmt.Sprintf("durable gen=%d fsync=%s", durable.Generation(), fsync)
		}
		log.Printf("serving %d documents on %s (workers=%d queue=%d engine=%s corpus=%s)",
			st.Len(), addr, workers, queue, eng, mode)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain order matters: stop admission first so the load balancer's
	// health checks fail and in-flight work finishes, then close the
	// listener beneath the drained connections, and only then — once no
	// mutation can still be in flight — fold the WAL into a fresh
	// snapshot so the next start recovers without replay.
	log.Printf("shutting down: draining admission queue")
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		return err
	}
	if durable != nil {
		if gen, err := durable.Compact(); err != nil {
			log.Printf("final compaction failed (WAL remains authoritative): %v", err)
		} else {
			log.Printf("compacted corpus at generation %d", gen)
		}
		if err := durable.Close(); err != nil {
			return err
		}
	}
	log.Printf("shutdown complete")
	return nil
}
