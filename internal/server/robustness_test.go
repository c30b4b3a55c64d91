package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	xpath "repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestTimeoutFreesWorkerSlot is the acceptance test for cooperative
// cancellation end-to-end: a request that times out must cancel its
// evaluation budget so the single worker frees at the next cooperative
// check — the follow-up request is admitted and succeeds instead of
// timing out behind a zombie evaluation.
//
// The slow request runs the naive engine on the exponential-blowup family
// (2^31 node visits if left alone — hours), so the follow-up's 200 is
// only possible if the 504 actually interrupted the evaluation.
func TestTimeoutFreesWorkerSlot(t *testing.T) {
	st := xpath.NewStore()
	if err := st.Add("dbl", xpath.WrapTree(workload.Doubling())); err != nil {
		t.Fatal(err)
	}
	if err := st.Add("fig2", xpath.WrapTree(workload.Figure2())); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Store: st, Workers: 1, QueueDepth: 2, Timeout: 50 * time.Millisecond,
	})

	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "dbl", Query: workload.DoublingQuery(30), Engine: "naive"}, nil)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow query: status = %d, want 504 (body %s)", w.Code, w.Body.String())
	}

	// The worker slot must free within the follow-up's own 50ms budget; a
	// still-running evaluation would 504 this one too.
	w = do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a/child::b"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("follow-up after timeout: status = %d, want 200 (body %s)",
			w.Code, w.Body.String())
	}
}

// TestBudgetStatuses pins the 422 mapping for server-policy budget trips:
// step-fuel exhaustion and result-cardinality overflow are well-formed but
// too expensive, distinct from 400 (bad request) and 504 (out of time).
// The max-steps query enters a per-candidate predicate block, because the
// default (compiled) engine charges one step per VM block entry.
func TestBudgetStatuses(t *testing.T) {
	t.Run("max steps", func(t *testing.T) {
		s := newTestServer(t, Config{MaxSteps: 5})
		var e errorBody
		w := do(t, s, http.MethodPost, "/query",
			QueryRequest{ID: "s20", Query: "/descendant::*[position() > last()*0.5 or self::* = 100]"}, &e)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422 (body %s)", w.Code, w.Body.String())
		}
		if e.Error == "" {
			t.Fatal("422 body missing error field")
		}
	})
	t.Run("max result cardinality", func(t *testing.T) {
		s := newTestServer(t, Config{MaxResultCard: 2})
		w := do(t, s, http.MethodPost, "/query",
			QueryRequest{ID: "s20", Query: "/descendant-or-self::*"}, nil)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422 (body %s)", w.Code, w.Body.String())
		}
		// Under the cap the same server answers 200.
		w = do(t, s, http.MethodPost, "/query",
			QueryRequest{ID: "s20", Query: "/child::a"}, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("small result: status = %d, want 200 (body %s)", w.Code, w.Body.String())
		}
	})
}

// TestPoolWorkerPanicBackstop: a panic that escapes every per-job guard
// still cannot kill a pool worker — the pool-level recover counts it and
// the worker keeps draining the queue.
func TestPoolWorkerPanicBackstop(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	before := metrics.Default().Counter("server.worker_panics").Value()
	if err := s.pool.submit(func() { panic("worker bomb") }); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for metrics.Default().Counter("server.worker_panics").Value() == before {
		select {
		case <-deadline:
			t.Fatal("worker panic never counted")
		case <-time.After(time.Millisecond):
		}
	}
	// The same (sole) worker serves the next request.
	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a/child::b"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("request after worker panic: status = %d, want 200 (body %s)",
			w.Code, w.Body.String())
	}
}

// cancelableRequest drives one /query through ServeHTTP on its own
// goroutine with a cancelable request context, simulating a client
// disconnect mid-request.
type cancelableRequest struct {
	cancel func()
	done   chan struct{}
}

func httptestNewCancelableRequest(t *testing.T, s *Server, body QueryRequest) *cancelableRequest {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(b)).WithContext(ctx)
	cr := &cancelableRequest{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(cr.done)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	return cr
}

// TestClientDisconnectCancelsEvaluation: when the client goes away
// mid-evaluation, the budget is canceled and the worker slot frees — the
// next request on the single worker succeeds promptly.
func TestClientDisconnectCancelsEvaluation(t *testing.T) {
	st := xpath.NewStore()
	if err := st.Add("dbl", xpath.WrapTree(workload.Doubling())); err != nil {
		t.Fatal(err)
	}
	if err := st.Add("fig2", xpath.WrapTree(workload.Figure2())); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Store: st, Workers: 1, QueueDepth: 2, Timeout: 30 * time.Second,
	})

	// A request whose context is canceled shortly after admission: the
	// handler returns without writing, and — the part under test — the
	// evaluation stops long before its natural completion.
	req := httptestNewCancelableRequest(t, s, QueryRequest{
		ID: "dbl", Query: workload.DoublingQuery(30), Engine: "naive",
	})
	time.Sleep(20 * time.Millisecond)
	req.cancel()
	select {
	case <-req.done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never returned after client disconnect")
	}

	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a/child::b"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("request after disconnect: status = %d, want 200 (body %s)",
			w.Code, w.Body.String())
	}
}
