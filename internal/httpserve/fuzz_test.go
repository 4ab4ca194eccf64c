package httpserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"kdesel/internal/core"
	"kdesel/internal/registry"
)

// fuzzEndpoints are the data-plane endpoints FuzzRequestBodies posts to.
// /analyze goes without sync=1: it only queues the background ANALYZE, so
// no input runs an optimization on the request path.
var fuzzEndpoints = []string{"/estimate", "/feedback", "/ingest", "/analyze"}

// FuzzRequestBodies posts arbitrary bodies to the data-plane endpoints of
// one server over an Adaptive model with sample maintenance, so feedback
// learns and ingest reaches the reservoir. No body may panic the server or
// get a 5xx; a 200 estimate must carry a finite selectivity in [0, 1], and
// every 4xx must carry a typed error code. The seeds are one valid body
// per endpoint, plus /feedback's batch form.
func FuzzRequestBodies(f *testing.F) {
	reg := registry.New(registry.Config{})
	f.Cleanup(reg.Close)
	err := reg.Admit(registry.NewKey("t", 0, 1), buildTable(f, 400, 2, 11),
		core.Config{Mode: core.Adaptive, SampleSize: 64, Seed: 7}, core.ServeConfig{MaxBatch: 1})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Registry: reg, DefaultModel: "t(0,1)"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })

	f.Add(uint8(0), []byte(`{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`))
	f.Add(uint8(1), []byte(`{"lo":[-2,-2],"hi":[3,3],"actual":0.4}`))
	f.Add(uint8(1), []byte(`{"feedback":[{"lo":[-2,-2],"hi":[3,3],"actual":0.4},{"lo":[4,4],"hi":[6,6],"actual":0.3}]}`))
	f.Add(uint8(2), []byte(`{"rows":[[1,2],[5,5]],"delete_lo":[9,9],"delete_hi":[10,10]}`))
	f.Add(uint8(3), []byte(`{"feedback":[{"lo":[-2,-2],"hi":[3,3],"actual":0.4}]}`))
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := rec.Code; {
		case code >= 500:
			t.Fatalf("POST %s %q: status %d, body %s", path, body, code, rec.Body)
		case code >= 400:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code == "" {
				t.Fatalf("POST %s %q: status %d without a typed error code: %s", path, body, code, rec.Body)
			}
		case code == http.StatusOK && path == "/estimate":
			// JSON cannot encode NaN or Inf: a non-finite selectivity
			// leaves a body that does not decode.
			var resp estimateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("POST %s %q: undecodable 200 body %q: %v", path, body, rec.Body, err)
			}
			if sel := resp.Selectivity; sel < 0 || sel > 1 {
				t.Fatalf("POST %s %q: selectivity %v outside [0, 1]", path, body, sel)
			}
		}
	})
}
