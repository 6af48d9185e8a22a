package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"servicebroker/internal/backend"
)

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricEmitted runs every workload briefly, untraced and traced,
// and checks that the run reports exactly the metrics BENCHMARK.json names,
// with their units, and that every answer was right. db-rw is not listed in
// BENCHMARK.json but reports the same metrics.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			rep, err := run(config{workload: w.name, seed: 7, seconds: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failures=%v",
					w.name, trace, rep.Correct, rep.Attempted, rep.Record.Failures)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// corruptConnector appends a byte to every backend answer.
type corruptConnector struct{ backend.Connector }

func (c corruptConnector) Connect(ctx context.Context) (backend.Session, error) {
	s, err := c.Connector.Connect(ctx)
	if err != nil {
		return nil, err
	}
	return corruptSession{s}, nil
}

type corruptSession struct{ backend.Session }

func (s corruptSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	out, err := s.Session.Do(ctx, payload)
	return append(bytes.Clone(out), 'x'), err
}

// TestChecksCatchWrongAnswers proves the answer checks bite: a backend that
// corrupts its answers must raise error_ratio and clear correct.
func TestChecksCatchWrongAnswers(t *testing.T) {
	for _, wl := range []string{"hot-read", "db-rw"} {
		clean, err := run(config{workload: wl, seed: 3, seconds: 1, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		bad, err := run(config{workload: wl, seed: 3, seconds: 1, trace: true,
			wrapDB: func(c backend.Connector) backend.Connector { return corruptConnector{c} }})
		if err != nil {
			t.Fatal(err)
		}
		before, after := clean.Metrics["error_ratio"].Value, bad.Metrics["error_ratio"].Value
		if after <= before || after < 0.5 {
			t.Errorf("%s: error_ratio %.3f with a corrupting backend, %.3f without", wl, after, before)
		}
		if bad.Correct || bad.Failed == 0 {
			t.Errorf("%s: corrupted answers passed: correct=%t failed=%d", wl, bad.Correct, bad.Failed)
		}
	}
}

// TestLedgerReconciles checks the self-time arithmetic on one synthetic
// request: the layer self times plus the unexplained share sum to the
// end-to-end time.
func TestLedgerReconciles(t *testing.T) {
	call := callSpan{span: span{key: 1, start: 100, end: 900}, due: 50, done: 1000}
	res := []span{{key: 1, start: 200, end: 800}, {key: 2, start: 300, end: 400}}
	be := []span{{key: 1, start: 300, end: 600}}
	l := buildLedger([]callSpan{call}, res, be)
	if l.e2eMean != 0.95 || l.lagMean != 0.05 {
		t.Fatalf("e2e %.3f µs lag %.3f µs, want 0.95 and 0.05", l.e2eMean, l.lagMean)
	}
	if l.frontendSelfMean != 0.2 || l.brokerSelfMean != 0.3 || l.backendMean != 0.3 {
		t.Fatalf("self times frontend %.3f broker %.3f backend %.3f µs, want 0.2, 0.3, 0.3",
			l.frontendSelfMean, l.brokerSelfMean, l.backendMean)
	}
	if got, want := l.unexplainedPct, 100*0.1/0.95; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("unexplained %.4f%%, want %.4f%%", got, want)
	}
	if l.matchedRatio != 1 {
		t.Fatalf("matched ratio %.3f, want 1", l.matchedRatio)
	}
}

// TestLedgerMatchesOneToOne checks that two overlapping calls with the same
// payload each claim their own residence and backend exchange, and that a
// call with no residence is attributed to no layer.
func TestLedgerMatchesOneToOne(t *testing.T) {
	calls := []callSpan{
		{span: span{key: 1, start: 10, end: 110}, due: 10, done: 110},
		{span: span{key: 1, start: 0, end: 100}, due: 0, done: 100},
		{span: span{key: 2, start: 0, end: 100}, due: 0, done: 100}, // never reached the gateway
	}
	// Both residences lie inside the first call, and both backend exchanges
	// inside the first residence.
	res := []span{{key: 1, start: 5, end: 50}, {key: 1, start: 15, end: 60}}
	be := []span{{key: 1, start: 20, end: 40}, {key: 1, start: 25, end: 45}}
	l := buildLedger(calls, res, be)
	// Each matched call: 55 front end, 25 broker, 20 backend.
	if want := 110.0 / 3 / 1e3; l.frontendSelfMean < want-1e-12 || l.frontendSelfMean > want+1e-12 {
		t.Errorf("frontend self %.6f µs, want %.6f", l.frontendSelfMean, want)
	}
	if want := 50.0 / 3 / 1e3; l.brokerSelfMean < want-1e-12 || l.brokerSelfMean > want+1e-12 {
		t.Errorf("broker self %.6f µs, want %.6f", l.brokerSelfMean, want)
	}
	if want := 40.0 / 3 / 1e3; l.backendMean < want-1e-12 || l.backendMean > want+1e-12 {
		t.Errorf("backend %.6f µs, want %.6f", l.backendMean, want)
	}
	if want := 100 * 100.0 / 300; l.unexplainedPct < want-1e-9 || l.unexplainedPct > want+1e-9 {
		t.Errorf("unexplained %.4f%%, want %.4f%% (the unmatched call)", l.unexplainedPct, want)
	}
	if want := 2.0 / 3; l.matchedRatio != want {
		t.Errorf("matched ratio %.4f, want %.4f", l.matchedRatio, want)
	}
}

// TestLedgerShortCallKeepsItsResidence checks a long call that contains a
// shorter call with the same payload: the short call's residence is the
// earliest inside both, and must go to the short call.
func TestLedgerShortCallKeepsItsResidence(t *testing.T) {
	calls := []callSpan{
		{span: span{key: 3, start: 0, end: 200}, due: 0, done: 200},
		{span: span{key: 3, start: 10, end: 50}, due: 10, done: 50},
	}
	res := []span{{key: 3, start: 20, end: 40}, {key: 3, start: 60, end: 190}}
	l := buildLedger(calls, res, nil)
	if l.matchedRatio != 1 || l.unexplainedPct != 0 {
		t.Fatalf("matched ratio %.3f, unexplained %.3f%%; want 1 and 0", l.matchedRatio, l.unexplainedPct)
	}
}
