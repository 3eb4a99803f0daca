package serve

import (
	"net/http"
	"net/url"
	"runtime"
	"testing"
)

// nopWriter is a ResponseWriter with zero steady-state allocation: the
// header map is built once and the body is discarded.
type nopWriter struct {
	h      http.Header
	status int
	n      int
}

// newNopWriter pre-inserts the Content-Type key: a Go map allocates its
// first bucket on first insert, and that harness-side allocation must
// not be charged to the server's first-request window.
func newNopWriter() *nopWriter {
	w := &nopWriter{h: make(http.Header, 4)}
	w.h["Content-Type"] = nil
	return w
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(status int)      { w.status = status }
func (w *nopWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func hotRequest(path, rawQuery string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: rawQuery}}
}

// warmServer returns a warmed-up server: Options.Warmup pre-compiles
// the tables, pre-faults the arena, and exercises every hot endpoint.
func warmServer(t testing.TB) *Server {
	return newTestServer(t, Options{Warmup: true})
}

func assertZeroAlloc(t *testing.T, name string, w *nopWriter, s *Server, req *http.Request) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, func() {
		w.status = 0
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", name, w.status)
		}
	}); avg != 0 {
		t.Errorf("%s: %v allocs/op warm, want 0", name, avg)
	}
}

// TestHotPathZeroAlloc pins the steady-state hot-path contract: once
// warm, predict (full sweep and single config), recommend (both
// objectives, with constraints), both again off the compiled batch
// once the manual pass has compiled that batch's tables, and healthz
// allocate nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	s := warmServer(t)
	w := newNopWriter()
	cases := []struct {
		name, path, query string
	}{
		{"predict-sweep", "/v1/predict", "model=resnet-50"},
		{"predict-config", "/v1/predict", "model=alexnet&config=2xP3&samples=100000"},
		{"recommend-cost", "/v1/recommend", "model=vgg-16&objective=cost"},
		{"recommend-constrained", "/v1/recommend", "model=inception-v3&objective=time&max_hourly_usd=50&max_total_usd=100"},
		{"predict-offbatch", "/v1/predict", "model=resnet-50&batch=64"},
		{"recommend-offbatch", "/v1/recommend", "model=vgg-16&objective=cost&batch=16"},
		{"healthz", "/healthz", ""},
	}
	for _, c := range cases {
		req := hotRequest(c.path, c.query)
		// One manual pass so per-query state (none expected) is settled.
		w.status = 0
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s: warmup status %d", c.name, w.status)
		}
		assertZeroAlloc(t, c.name, w, s, req)
	}
}

// TestErrorPathZeroAlloc pins that even refused requests (shed, bad
// query, unknown model) stay allocation-free — load shedding that
// allocates would defeat its purpose.
func TestErrorPathZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	s := warmServer(t)
	w := newNopWriter()
	for _, c := range []struct {
		name, path, query string
		status            int
	}{
		{"unknown-model", "/v1/predict", "model=nope", http.StatusNotFound},
		{"bad-param", "/v1/predict", "model=alexnet&bogus=1", http.StatusBadRequest},
		{"not-found", "/v1/frobnicate", "", http.StatusNotFound},
	} {
		req := hotRequest(c.path, c.query)
		w.status = 0
		s.ServeHTTP(w, req)
		if w.status != c.status {
			t.Fatalf("%s: warmup status %d, want %d", c.name, w.status, c.status)
		}
		if avg := testing.AllocsPerRun(100, func() {
			s.ServeHTTP(w, req)
		}); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
	}
}

// TestFirstRequestZeroAllocAfterWarmup pins the -warmup contract: the
// FIRST request after New(Options{Warmup: true}) already runs the
// zero-allocation path. testing.AllocsPerRun silently runs the body
// once as its own warm-up, so it cannot test "first"; instead the
// malloc counter is read around exactly one request.
func TestFirstRequestZeroAllocAfterWarmup(t *testing.T) {
	skipUnderRace(t)
	s := newTestServer(t, Options{Warmup: true})
	w := newNopWriter()
	req := hotRequest("/v1/predict", "model=resnet-50")

	// No runtime.GC() here: a GC clears the pool's per-P locals, and
	// the next Get re-allocates pool internals — exactly the cold-start
	// cost Warmup exists to pay in advance. The window below holds one
	// request and nothing else.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)

	if w.status != http.StatusOK {
		t.Fatalf("first request: status %d", w.status)
	}
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("first request after warmup allocated %d objects, want 0", d)
	}
}

// raceEnabled is set by the tagged init in race_on_test.go.
var raceEnabled bool

// skipUnderRace skips allocation pins when the race detector is on:
// its instrumentation allocates on paths the production build does
// not, so alloc counts only mean anything in the plain build.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
}
