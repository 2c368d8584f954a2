package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/ansor"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/regserver"
	"repro/internal/te"
)

// netSpec is one built-in network with its task DAGs built once.
type netSpec struct {
	net     ansor.Network
	tasks   []string // network order
	dags    map[string]*te.DAG
	weights map[string]float64
}

func loadNetwork(name string) (*netSpec, error) {
	n, err := ansor.BuiltinNetwork(name, 1)
	if err != nil {
		return nil, err
	}
	s := &netSpec{net: n, dags: map[string]*te.DAG{}, weights: map[string]float64{}}
	for _, t := range n.Tasks {
		s.tasks = append(s.tasks, t.Name)
		s.dags[t.Name] = t.Build()
		s.weights[t.Name] = float64(t.Weight)
	}
	return s, nil
}

// serveHTTP serves h on a loopback port until the returned stop runs;
// stop returns once the server goroutine has exited.
func serveHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: loopback server: %v\n", err)
		}
	}()
	stop := func() {
		_ = srv.Close() // Serve reports the outcome; Close only interrupts it
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// fleetEnv is a loopback measurement fleet: one broker and n in-process
// workers hosting the target's machine model.
type fleetEnv struct {
	broker *fleet.Broker
	url    string
	stop   func()
}

func startFleet(target ansor.Target, workers int) (*fleetEnv, error) {
	b := fleet.NewBroker()
	url, stopHTTP, err := serveHTTP(b.Handler())
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := fleet.NewWorker(url, fmt.Sprintf("bench-w%d", i), target.Machine, 4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: fleet worker %s: %v\n", w.ID, err)
			}
		}()
	}
	return &fleetEnv{broker: b, url: url, stop: func() {
		cancel()
		wg.Wait()
		stopHTTP()
	}}, nil
}

// metrics reads the broker's /metrics payload and its lease-wait
// histogram, which the JSON payload does not carry.
func (f *fleetEnv) metrics() (fleet.Metrics, obs.HistSnapshot, error) {
	m, err := fleet.NewClient(f.url).Metrics()
	if err != nil {
		return fleet.Metrics{}, obs.HistSnapshot{}, err
	}
	return m, f.broker.Obs.Metrics.Snapshot().Histograms["lease_wait_seconds"], nil
}

// regEnv is a durable registry server on a loopback port.
type regEnv struct {
	srv   *regserver.Server
	url   string
	store string
	stop  func()
}

// openRegistry opens a durable registry server over store and reports
// how long regserver.Open took.
func openRegistry(store string) (*regEnv, time.Duration, error) {
	t0 := time.Now()
	srv, err := regserver.Open(store)
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	url, stop, err := serveHTTP(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	return &regEnv{srv: srv, url: url, store: store, stop: stop}, took, nil
}

// close stops serving and closes the store (a final snapshot).
func (e *regEnv) close() error {
	e.stop()
	return e.srv.Close()
}

func (e *regEnv) metrics() (regserver.Metrics, error) {
	return regserver.NewClient(e.url).Metrics()
}

// teeSink sends events both to memory, for the fold, and to the run's
// event file, so a traced fleet run keeps the operator's event stream.
type teeSink struct {
	mem  *obs.MemorySink
	file obs.Sink
}

func (t teeSink) Emit(e obs.Event) {
	t.mem.Emit(e)
	t.file.Emit(e)
}

func (t teeSink) Close() error { return t.file.Close() }

// dropped reports how many events a sink discarded, when it counts them.
func dropped(s obs.Sink) int64 {
	if d, ok := s.(interface{ Dropped() int64 }); ok {
		return d.Dropped()
	}
	return 0
}
