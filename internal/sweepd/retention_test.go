package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
)

// submitDirect posts specs to srv's handler in process, without a
// listener, and returns the submit response.
func submitDirect(t testing.TB, srv *Server, specs []cellstore.Spec) submitResponse {
	t.Helper()
	body, err := json.Marshal(submitRequest{Cells: specs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub submitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// sweepStatusCode is the HTTP status GET /v1/sweeps/{id} answers.
func sweepStatusCode(srv *Server, id string) int {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+id, nil))
	return rec.Code
}

// TestFinishedSweepsEvicted submits 10k finished one-cell sweeps: the
// history stays at its bound, the newest ids still answer, and the
// evicted ones get the unknown-sweep 404.
func TestFinishedSweepsEvicted(t *testing.T) {
	srv, client, _ := newTestServer(t, nil)
	specs := testSpecs(1)
	if _, err := client.RunCells(specs); err != nil { // s1, the cold pass
		t.Fatal(err)
	}
	const total = 10_001
	for i := 2; i <= total; i++ {
		if id := submitDirect(t, srv, specs).ID; id != fmt.Sprintf("s%d", i) {
			t.Fatalf("sweep %d got id %s", i, id)
		}
	}
	srv.mu.Lock()
	n := len(srv.sweeps)
	srv.mu.Unlock()
	if n != maxSweeps {
		t.Errorf("%d sweeps retained, want %d", n, maxSweeps)
	}
	oldestKept := total - maxSweeps + 1
	for id, want := range map[string]int{
		"s1":                             http.StatusNotFound,
		fmt.Sprintf("s%d", oldestKept-1): http.StatusNotFound,
		fmt.Sprintf("s%d", oldestKept):   http.StatusOK,
		fmt.Sprintf("s%d", total):        http.StatusOK,
	} {
		if got := sweepStatusCode(srv, id); got != want {
			t.Errorf("GET /v1/sweeps/%s: %d, want %d", id, got, want)
		}
	}
}

// TestRunningSweepNotEvicted fills the history past its bound while
// the oldest sweep still waits on a cell: that sweep stays, and once it
// finishes it is the next one evicted.
func TestRunningSweepNotEvicted(t *testing.T) {
	release := make(chan struct{})
	specs := testSpecs(2)
	blocked := specs[0].Key()
	srv, _, store := newTestServer(t, func(c *Config) {
		c.Simulate = func(s cellstore.Spec) (smtsim.Result, error) {
			if s.Key() == blocked {
				<-release
			}
			return fakeSimulate(s)
		}
	})
	running := submitDirect(t, srv, specs[:1]).ID
	fast := specs[1:]
	submitDirect(t, srv, fast)
	waitFor(t, 5*time.Second, func() bool { return store.Len() == 1 })
	for i := 0; i < maxSweeps+10; i++ {
		submitDirect(t, srv, fast)
	}
	if got := sweepStatusCode(srv, running); got != http.StatusOK {
		t.Fatalf("running sweep %s evicted: %d", running, got)
	}
	close(release)
	waitFor(t, 5*time.Second, func() bool { return store.Len() == 2 })
	waitFor(t, 5*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.sweeps[running].finished()
	})
	submitDirect(t, srv, fast)
	if got := sweepStatusCode(srv, running); got != http.StatusNotFound {
		t.Errorf("finished oldest sweep %s not evicted: %d", running, got)
	}
	srv.mu.Lock()
	n := len(srv.sweeps)
	srv.mu.Unlock()
	if n != maxSweeps {
		t.Errorf("%d sweeps retained, want %d", n, maxSweeps)
	}
}

// TestFinishedSweepRetainsNoResults bounds the memory a finished sweep
// keeps: results live only in the store, so a warm sweep retains its
// hashes (shared with the store index) and a few bytes of state per
// cell.
func TestFinishedSweepRetainsNoResults(t *testing.T) {
	const cells, sweeps = 200, 50
	srv, client, _ := newTestServer(t, nil)
	specs := testSpecs(cells)
	if _, err := client.RunCells(specs); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	for i := 0; i < sweeps; i++ {
		if _, err := client.RunCells(specs); err != nil {
			t.Fatal(err)
		}
	}
	perCell := float64(heap()-before) / (cells * sweeps)
	runtime.KeepAlive(srv)
	t.Logf("retained %.1f B per finished cell", perCell)
	if perCell > 128 {
		t.Errorf("finished sweeps retain %.1f B per cell, want at most 128", perCell)
	}
}

// TestStoreHitsCountSubmissions pins the store's hit counter: a warm
// sweep of N cells is N hits, and reading its results back for the
// stream and the status lines adds none.
func TestStoreHitsCountSubmissions(t *testing.T) {
	srv, client, _ := newTestServer(t, nil)
	specs := testSpecs(8)
	for i := 0; i < 2; i++ {
		if _, err := client.RunCells(specs); err != nil {
			t.Fatal(err)
		}
	}
	if got := sweepStatusCode(srv, "s2"); got != http.StatusOK {
		t.Fatalf("GET /v1/sweeps/s2: %d", got)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Hits != int64(len(specs)) {
		t.Errorf("store hits after one warm sweep = %d, want %d", st.Store.Hits, len(specs))
	}
}
