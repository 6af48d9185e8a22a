package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
	"servicebroker/internal/workload"
)

// Workload parameters. hot-read and db-rw never overload a broker, so the
// class changes nothing on their path; they send every request as class 1,
// which puts every answer behind their class-1 figures. overload mixes
// classes 1/2/3 at 20/30/50%.
const (
	hotKeys     = 1000 // point-read ids, all of which fit the db cache
	zipfSkew    = 1.1
	connections = 2 // keep-alive HTTP connections of the generator
	dbRWRate    = 300
	// Every 33rd db-rw request is a write (3%). Evenly spaced writes keep the
	// number of index rebuilds they cause, which sets db-rw's tail and CPU,
	// from varying with the seed.
	dbRWWriteGap = 33
	overloadRate = 3000
	backlogGrace = 10 * time.Second // open-loop requests later than this are not sent
)

// statuses is the small value set db-rw writes into records.name.
var statuses = []string{"active", "idle", "held", "closed"}

// Why a request failed; see failureNames.
const (
	failNone uint8 = iota
	failTransport
	failStatus
	failWrong
	failCachedWrite
	failBacklog
)

var failureNames = map[uint8]string{
	failTransport:   "transport_error",
	failStatus:      "error_status",
	failWrong:       "wrong_answer",
	failCachedWrite: "cached_write",
	failBacklog:     "backlog_not_sent",
}

// unreachable reports a failure that means the deployment is not serving;
// warm-ups stop on it. Wrong answers are left to the measured phase, which
// counts them.
func unreachable(reason uint8) bool { return reason == failTransport || reason == failStatus }

// classOf draws a class from the 20/30/50 mix.
func classOf(rng *rand.Rand) qos.Class {
	switch x := rng.Intn(10); {
	case x < 2:
		return 1
	case x < 5:
		return 2
	default:
		return 3
	}
}

// hotIDs picks the seed's 1,000 popular ids; rank 0 is the hottest.
func hotIDs(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(fixtureRows)[:hotKeys]
}

// phase is one measured stretch of a workload on one stack.
type phase struct {
	st     *stack
	seed   int64
	dur    time.Duration
	traced bool

	start int64 // now() at the phase start

	mu      sync.Mutex
	all     *tally
	calls   []callSpan
	writes  []writeRecord
	reasons map[string]int
}

func (p *phase) recordCall(c callSpan) {
	if !p.traced {
		return
	}
	p.mu.Lock()
	if len(p.calls) < maxSpans {
		p.calls = append(p.calls, c)
	}
	p.mu.Unlock()
}

// finish records one request: latency runs from due to the answer (ce),
// lag from due to the call start (cs). due, cs, ce and done (after the
// answer check) are now() values; key identifies the payload across layers.
func (p *phase) finish(key uint64, class qos.Class, due, cs, ce int64, result, reason uint8) {
	done := now()
	p.recordCall(callSpan{span: span{key: key, start: cs, end: ce}, due: due, done: done})
	p.mu.Lock()
	if reason != failNone {
		p.reasons[failureNames[reason]]++
	}
	p.all.add(ce-due, cs-due, uint8(class), result)
	p.mu.Unlock()
}

// verdict classifies an HTTP answer from the front end: ok when the broker
// answered in full or from cache and valid(body) holds, degraded for a
// dropped or shed low-fidelity answer, failed otherwise.
func verdict(resp *httpserver.Response, err error, valid func([]byte) bool) (uint8, uint8) {
	if err != nil {
		return resultFailed, failTransport
	}
	if resp.Status != 200 {
		return resultFailed, failStatus
	}
	fid := resp.Header["x-fidelity"]
	switch resp.Header["x-broker-status"] {
	case "ok":
		if (fid == "full" || fid == "cached") && valid(resp.Body) {
			return resultOK, failNone
		}
	case "dropped", "shed":
		if fid != "full" && fid != "cached" {
			return resultDegraded, failNone
		}
	}
	return resultFailed, failWrong
}

// brokerVerdict is verdict for a direct broker call through the pool.
func brokerVerdict(resp *broker.Response, err error, valid func([]byte) bool) (uint8, uint8) {
	if err != nil {
		return resultFailed, failTransport
	}
	lowFidelity := resp.Fidelity != qos.FidelityFull && resp.Fidelity != qos.FidelityCached
	switch {
	case resp.Status == broker.StatusError:
		return resultFailed, failStatus
	case resp.Status == broker.StatusOK && !lowFidelity && valid(resp.Payload):
		return resultOK, failNone
	case lowFidelity: // dropped, shed, or the pool's stale answer
		return resultDegraded, failNone
	}
	return resultFailed, failWrong
}

// ---- hot-read: closed loop of cached point reads over HTTP.

func pointQuery(id int) string {
	return fmt.Sprintf("SELECT id, name FROM records WHERE id = %d", id)
}

func pointValid(id int) func([]byte) bool {
	return func(body []byte) bool {
		return string(body) == fmt.Sprintf("id\tname\n%d\trecord-%06d\n", id, id)
	}
}

func httpGet(cli *httpserver.Client, sql string, class qos.Class) (*httpserver.Response, error) {
	return cli.Get("/db", map[string]string{"q": sql, "qos": strconv.Itoa(int(class))})
}

func newHTTPClient(st *stack) *httpserver.Client {
	return httpserver.NewClient(st.web.Addr(), httpserver.WithPersistent(1), httpserver.WithTimeout(10*time.Second))
}

// eachConn runs fn once per generator connection and waits for all of them.
func eachConn(st *stack, fn func(conn int, cli *httpserver.Client)) {
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := newHTTPClient(st)
			defer cli.Close()
			fn(c, cli)
		}(c)
	}
	wg.Wait()
}

// warmHotRead loads every popular id into the cache, then replays a Zipf
// stream.
func warmHotRead(st *stack, seed int64) error {
	ids := hotIDs(seed)
	zipf, err := workload.NewZipfKeys(hotKeys, zipfSkew, seed^0x5eed)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var firstErr error
	eachConn(st, func(conn int, cli *httpserver.Client) {
		for i := conn; i < 2*hotKeys; i += connections {
			id := ids[i%hotKeys]
			if i >= hotKeys {
				id = ids[zipf.Rank(conn, i)]
			}
			resp, err := httpGet(cli, pointQuery(id), 1)
			if _, reason := verdict(resp, err, pointValid(id)); unreachable(reason) {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("hot-read warm-up: id %d not answered", id)
				}
				mu.Unlock()
				return
			}
		}
	})
	return firstErr
}

func runHotRead(p *phase) error {
	ids := hotIDs(p.seed)
	zipf, err := workload.NewZipfKeys(hotKeys, zipfSkew, p.seed)
	if err != nil {
		return err
	}
	end := p.start + int64(p.dur)
	eachConn(p.st, func(conn int, cli *httpserver.Client) {
		const class = 1
		for seq := 0; ; seq++ {
			due := now()
			if due >= end {
				break
			}
			id := ids[zipf.Rank(conn, seq)]
			sql := pointQuery(id)
			cs := now()
			resp, err := httpGet(cli, sql, class)
			ce := now()
			result, reason := verdict(resp, err, pointValid(id))
			p.finish(payloadKey(sql), class, due, cs, ce, result, reason)
		}
	})
	return nil
}

// ---- db-rw: open-loop Poisson mix of range reads and point writes over HTTP.

type dbRequest struct {
	due int64 // offset from the phase start
	sql string
	// Writes set id and value; reads carry their predicate.
	write    bool
	id       int
	value    string
	cat      int64
	lo, hi   float64
	wantRows int
}

// writeRecord is one UPDATE's interval and fate, for the read-back check.
type writeRecord struct {
	id         int
	value      string
	send, end  int64
	acked      bool // answered in full: the engine executed it
	maybeAfter bool // failed without a cached answer: it may have executed
}

// poisson returns due offsets of a Poisson process of rate per second over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []int64 {
	var dues []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return dues
		}
		dues = append(dues, int64(t*1e9))
	}
}

func rangeRequest(rng *rand.Rand, truth fixtureTruth) (dbRequest, error) {
	sql := sqldb.RandomRangeQuery(rng)
	r := dbRequest{sql: sql}
	var lo, hi int
	if _, err := fmt.Sscanf(sql, "SELECT id, name, score FROM records WHERE category = %d AND score BETWEEN %d AND %d",
		&r.cat, &lo, &hi); err != nil {
		return r, fmt.Errorf("unexpected range query %q: %w", sql, err)
	}
	r.lo, r.hi = float64(lo), float64(hi)
	r.wantRows = truth.rangeCount(r.cat, r.lo, r.hi)
	return r, nil
}

func dbSchedule(seed int64, d time.Duration, truth fixtureTruth) ([]dbRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	ids := hotIDs(seed)
	zipf, err := workload.NewZipfKeys(hotKeys, zipfSkew, seed)
	if err != nil {
		return nil, err
	}
	dues := poisson(rng, dbRWRate, d)
	reqs := make([]dbRequest, 0, len(dues))
	for i, due := range dues {
		var r dbRequest
		if i%dbRWWriteGap == dbRWWriteGap-1 {
			r.write, r.id, r.value = true, ids[zipf.Rank(0, i)], statuses[rng.Intn(len(statuses))]
			r.sql = fmt.Sprintf("UPDATE records SET name = '%s' WHERE id = %d", r.value, r.id)
		} else if r, err = rangeRequest(rng, truth); err != nil {
			return nil, err
		}
		r.due = due
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// rangeValid checks a range read against the fixture: every row satisfies
// the predicate and carries its true score, and no qualifying row is missing.
func rangeValid(r dbRequest, truth fixtureTruth) func([]byte) bool {
	return func(body []byte) bool {
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		if len(lines) == 0 || lines[0] != "id\tname\tscore" || len(lines)-1 != r.wantRows {
			return false
		}
		for _, line := range lines[1:] {
			f := strings.Split(line, "\t")
			if len(f) != 3 {
				return false
			}
			id, err1 := strconv.Atoi(f[0])
			score, err2 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil || id < 0 || id >= len(truth.score) {
				return false
			}
			if truth.category[id] != r.cat || truth.score[id] != score || score < r.lo || score > r.hi {
				return false
			}
		}
		return true
	}
}

func writeValid(body []byte) bool { return string(body) == "OK, 1 row(s) affected" }

func warmDBRW(st *stack, seed int64) error {
	var mu sync.Mutex
	var firstErr error
	eachConn(st, func(conn int, cli *httpserver.Client) {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed + int64(conn)))
		for i := 0; i < 150; i++ {
			r, err := rangeRequest(rng, st.truth)
			if err == nil {
				resp, herr := httpGet(cli, r.sql, 1)
				if _, reason := verdict(resp, herr, rangeValid(r, st.truth)); unreachable(reason) {
					err = fmt.Errorf("db-rw warm-up: %q not answered", r.sql)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
		}
	})
	return firstErr
}

func runDBRW(p *phase) error {
	reqs, err := dbSchedule(p.seed, p.dur, p.st.truth)
	if err != nil {
		return err
	}
	ready := make(chan int, len(reqs)) // sized to the schedule: the dispatcher never blocks
	go dispatch(p, len(reqs), func(i int) int64 { return reqs[i].due }, func(i int) { ready <- i }, func() { close(ready) })
	eachConn(p.st, func(conn int, cli *httpserver.Client) {
		for i := range ready {
			r := &reqs[i]
			due := p.start + r.due
			cs := now()
			if cs-due > int64(backlogGrace) {
				p.finish(0, 1, due, cs, cs, resultFailed, failBacklog)
				continue
			}
			resp, err := httpGet(cli, r.sql, 1)
			ce := now()
			var result, reason uint8
			if r.write {
				result, reason = verdict(resp, err, writeValid)
				w := writeRecord{id: r.id, value: r.value, send: cs, end: ce, acked: result == resultOK}
				if err == nil && resp.Header["x-fidelity"] == "cached" {
					// Known defect: the front end cannot mark a write NoCache,
					// so a repeated identical UPDATE is answered from the
					// broker cache and never executed.
					if result == resultOK {
						result, reason = resultFailed, failCachedWrite
					}
					w.acked = false
				} else if result == resultFailed {
					w.maybeAfter = true
				}
				p.mu.Lock()
				p.writes = append(p.writes, w)
				p.mu.Unlock()
			} else {
				result, reason = verdict(resp, err, rangeValid(*r, p.st.truth))
			}
			p.finish(payloadKey(r.sql), 1, due, cs, ce, result, reason)
		}
	})
	return nil
}

// checkWrites checks that each written row holds the value of its last
// acknowledged write, or of a write that overlapped it (either may land last),
// reading the engine directly. It returns rows checked and rows wrong.
func checkWrites(st *stack, writes []writeRecord) (checked, wrong int, err error) {
	byID := make(map[int][]writeRecord)
	for _, w := range writes {
		byID[w.id] = append(byID[w.id], w)
	}
	for id, ws := range byID {
		var last *writeRecord
		for i := range ws {
			if ws[i].acked && (last == nil || ws[i].end > last.end) {
				last = &ws[i]
			}
		}
		if last == nil {
			continue
		}
		ok := map[string]bool{}
		for _, w := range ws {
			if (w.acked || w.maybeAfter) && w.end >= last.send {
				ok[w.value] = true
			}
		}
		rs, qerr := st.engine.Exec(fmt.Sprintf("SELECT name FROM records WHERE id = %d", id))
		if qerr != nil {
			return checked, wrong, qerr
		}
		checked++
		if len(rs.Rows) != 1 || !ok[fmt.Sprint(rs.Rows[0][0])] {
			wrong++
		}
	}
	return checked, wrong, nil
}

// ---- overload: open-loop Poisson flood of the cgi broker through the pool.

func cgiValid(payload []byte) func([]byte) bool {
	return func(body []byte) bool {
		return len(body) == len(payload)+5 && string(body[:5]) == "done:" && string(body[5:]) == string(payload)
	}
}

func warmOverload(st *stack, seed int64) error {
	var wg sync.WaitGroup
	errs := make([]error, cgiConcurrent)
	for g := 0; g < cgiConcurrent; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				payload := []byte(fmt.Sprintf("warm-%d-%d-%d", seed, g, i))
				resp, err := st.pool.Do(context.Background(), "cgi", &broker.Request{Payload: payload, Class: 1})
				if _, reason := brokerVerdict(resp, err, cgiValid(payload)); unreachable(reason) {
					errs[g] = fmt.Errorf("overload warm-up: request %d not answered", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runOverload(p *phase) error {
	rng := rand.New(rand.NewSource(p.seed))
	dues := poisson(rng, overloadRate, p.dur)
	cls := make([]qos.Class, len(dues))
	for i := range cls {
		cls[i] = classOf(rng)
	}
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		due := p.start + dues[i]
		payload := []byte(fmt.Sprintf("job-%d-%d", p.seed, i))
		cs := now()
		resp, err := p.st.pool.Do(context.Background(), "cgi", &broker.Request{Payload: payload, Class: cls[i]})
		ce := now()
		result, reason := brokerVerdict(resp, err, cgiValid(payload))
		p.finish(payloadKey(payload), cls[i], due, cs, ce, result, reason)
	}
	dispatch(p, len(dues), func(i int) int64 { return dues[i] }, func(i int) {
		wg.Add(1)
		go send(i)
	}, func() {})
	wg.Wait()
	return nil
}

// dispatch releases requests 0..n-1 at their due offsets, sleeping between
// them; a late dispatcher releases everything already due at once, and the
// lateness shows as lag. done runs after the last release.
func dispatch(p *phase, n int, due func(int) int64, release func(int), done func()) {
	for i := 0; i < n; i++ {
		if wait := p.start + due(i) - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		release(i)
	}
	done()
}
