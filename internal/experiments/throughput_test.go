package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"kdesel/internal/metrics"
)

func TestThroughputShape(t *testing.T) {
	reg := metrics.New()
	res, err := Throughput(ThroughputConfig{
		SampleSize:       512,
		Clients:          []int{1, 8},
		QueriesPerClient: 40,
		MaxWait:          20 * time.Microsecond,
		Seed:             5,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.QPS <= 0 {
			t.Errorf("clients=%d: qps = %v, want > 0", p.Clients, p.QPS)
		}
		if p.Batches <= 0 {
			t.Errorf("clients=%d: no batches recorded", p.Clients)
		}
	}
	// Eight closed-loop clients must fill batches beyond singletons: the
	// coalescer only ever sees one request at a time with a single client,
	// but concurrency has to produce shared evaluations.
	if avg := res.Points[1].AvgBatch; avg <= 1.01 {
		t.Errorf("8 clients: avg batch = %v, want > 1", avg)
	}
	if res.Metrics == nil {
		t.Error("metrics snapshot missing")
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "clients") {
		t.Error("throughput table missing header")
	}
}

func TestThroughputUncoalesced(t *testing.T) {
	res, err := Throughput(ThroughputConfig{
		SampleSize:       256,
		Clients:          []int{4},
		QueriesPerClient: 20,
		MaxBatch:         1, // mutex path
		Seed:             6,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.QPS <= 0 {
		t.Errorf("qps = %v, want > 0", p.QPS)
	}
	if p.Batches != 0 || p.AvgBatch != 0 {
		t.Errorf("uncoalesced point reports batches (%d, %v)", p.Batches, p.AvgBatch)
	}
}
