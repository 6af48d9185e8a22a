package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/resilience"
	"servicebroker/internal/sqldb"
)

// Deployment under test, shared by every workload. The broker settings are
// the brokerd defaults; coalescing, wire batching, tracing, the SLO engine
// and hot-key tracking stay off, as the daemons default them.
const (
	fixtureRows   = 42000
	threshold     = 20
	workers       = 20
	classes       = 3
	dbCacheSize   = 2048
	dbCacheTTL    = 30 * time.Second
	cgiProcess    = 2 * time.Millisecond
	cgiConcurrent = 4
	loopback      = "127.0.0.1:0"
)

// daemonResilience mirrors brokerd's default -retries/-retry-base/-breaker-*.
var daemonResilience = resilience.Config{
	Retry:   resilience.RetryConfig{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
	Breaker: resilience.BreakerConfig{FailureThreshold: 5, Cooldown: time.Second},
}

// stackOptions select the traced variant and let tests interpose on the
// backends.
type stackOptions struct {
	traced bool
	// wrapDB, when set, wraps the db broker's connector (tests inject a
	// corrupting backend through it).
	wrapDB func(backend.Connector) backend.Connector
}

// stack is one in-process deployment over loopback: a sqldb engine behind its
// TCP server, a gateway fronting the db and cgi brokers, an HTTP front end
// routing /db to db, and a frontend pool for direct broker calls.
type stack struct {
	engine *sqldb.Engine
	truth  fixtureTruth
	dbSrv  *sqldb.Server
	db     *broker.Broker
	cgi    *broker.Broker
	gw     *broker.Gateway
	web    *frontend.Distributed
	pool   *frontend.Pool

	// Traced variant only.
	dbTimed, cgiTimed *timedConnector
	gwConn            *gatewayConn
}

func newStack(opts stackOptions) (s *stack, err error) {
	s = &stack{engine: sqldb.NewEngine()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := sqldb.LoadRecords(s.engine, fixtureRows); err != nil {
		return nil, err
	}
	if s.truth, err = loadTruth(s.engine); err != nil {
		return nil, err
	}
	if s.dbSrv, err = sqldb.NewServer(s.engine, loopback); err != nil {
		return nil, err
	}
	var dbConn backend.Connector = &backend.SQLConnector{Addr: s.dbSrv.Addr().String()}
	var cgiConn backend.Connector = &backend.DelayConnector{
		ServiceName: "cgi", ProcessTime: cgiProcess, MaxConcurrent: cgiConcurrent,
	}
	if opts.wrapDB != nil {
		dbConn = opts.wrapDB(dbConn)
	}
	if opts.traced {
		s.dbTimed = &timedConnector{Connector: dbConn}
		s.cgiTimed = &timedConnector{Connector: cgiConn}
		dbConn, cgiConn = s.dbTimed, s.cgiTimed
	}
	common := []broker.Option{
		broker.WithThreshold(threshold, classes),
		broker.WithWorkers(workers),
		broker.WithResilience(daemonResilience),
	}
	if s.db, err = broker.New(dbConn, append(common, broker.WithCache(dbCacheSize, dbCacheTTL))...); err != nil {
		return nil, fmt.Errorf("db broker: %w", err)
	}
	if s.cgi, err = broker.New(cgiConn, common...); err != nil {
		return nil, fmt.Errorf("cgi broker: %w", err)
	}
	brokers := map[string]*broker.Broker{"db": s.db, "cgi": s.cgi}
	pc, err := net.ListenPacket("udp", loopback)
	if err != nil {
		return nil, err
	}
	if opts.traced {
		s.gwConn = newGatewayConn(pc)
		pc = s.gwConn
	}
	if s.gw, err = broker.NewGatewayConn(pc, brokers); err != nil {
		pc.Close()
		return nil, err
	}
	gwAddr := s.gw.Addr().String()
	routes := []frontend.Route{{Pattern: "/db", Service: "db"}}
	if s.web, err = frontend.NewDistributed(loopback, gwAddr, routes); err != nil {
		return nil, err
	}
	if s.pool, err = frontend.NewPool(frontend.PoolConfig{Gateways: []string{gwAddr}}); err != nil {
		return nil, err
	}
	return s, nil
}

// close tears the deployment down front to back; safe on a partial stack.
func (s *stack) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	if s.web != nil {
		s.web.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.cgi != nil {
		s.cgi.Close()
	}
	if s.dbSrv != nil {
		s.dbSrv.Close()
	}
}

// fixtureTruth holds the fixture's immutable columns, read once from the
// engine, so answers can be checked without trusting the path under test.
// The workloads never write category or score.
type fixtureTruth struct {
	category []int64
	score    []float64
	// byCategory holds each category's scores, sorted, for range counts.
	byCategory map[int64][]float64
}

func loadTruth(e *sqldb.Engine) (fixtureTruth, error) {
	rs, err := e.Exec("SELECT id, category, score FROM records")
	if err != nil {
		return fixtureTruth{}, err
	}
	t := fixtureTruth{
		category:   make([]int64, len(rs.Rows)),
		score:      make([]float64, len(rs.Rows)),
		byCategory: make(map[int64][]float64),
	}
	for _, row := range rs.Rows {
		id, ok1 := row[0].(int64)
		cat, ok2 := row[1].(int64)
		score, ok3 := row[2].(float64)
		if !ok1 || !ok2 || !ok3 || id < 0 || int(id) >= len(rs.Rows) {
			return fixtureTruth{}, errors.New("fixture: unexpected row shape")
		}
		t.category[id], t.score[id] = cat, score
		t.byCategory[cat] = append(t.byCategory[cat], score)
	}
	for _, s := range t.byCategory {
		sort.Float64s(s)
	}
	return t, nil
}

// rangeCount is how many rows of category cat score within [lo, hi].
func (t fixtureTruth) rangeCount(cat int64, lo, hi float64) int {
	s := t.byCategory[cat]
	above := sort.Search(len(s), func(i int) bool { return s[i] > hi })
	return above - sort.SearchFloat64s(s, lo)
}
