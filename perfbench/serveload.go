package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"incranneal"
	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/serve"
	"incranneal/internal/solver"
)

// serve-mixed's open loop. The rate is about half of the capacity that
// cpu_ms_per_op implies on two vCPUs, so queues stay short and latency
// reflects the serving path rather than a backlog.
const (
	serveRate = 2.0 // requests per second
	// serveLargeFrac of the requests are partitioned q=128 problems; the
	// rest are q=64 problems that fit the device whole.
	serveLargeFrac = 0.2
	serveSmall     = 8 // distinct q=64 instances
	serveLarge     = 4 // distinct q=128 instances
	serveFleet     = 2
)

// servedInstance is one request problem with its encoded form.
type servedInstance struct {
	class  string // "q64" or "q128"
	p      *mqo.Problem
	js     []byte // the problem's JSON
	greedy float64
}

// body is the request for one solve of the instance with the given seed.
func (in *servedInstance) body(seed int64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"problem":`)
	b.Write(in.js)
	fmt.Fprintf(&b, `,"options":{"runs":%d,"totalSweeps":%d,"seed":%d}}`, runs, sweepsPerPlan*in.p.NumPlans(), seed)
	return b.Bytes()
}

// sendSpec is one scheduled request.
type sendSpec struct {
	at   time.Duration // offset from the start of the window
	inst int           // index into the instance list
	seed int64
}

// openLoopSchedule lays round(d·rate) requests on a jittered grid: the
// k-th is due at (k + u)/rate with u uniform in [0.1, 0.9), so sends never
// bunch up and never reorder. Exactly round(n·largeFrac) of them, at
// seeded positions, use a large instance; each class cycles through its
// instances in order. Identical arguments give identical schedules.
func openLoopSchedule(seed int64, rate float64, d time.Duration, small, large int, largeFrac float64) []sendSpec {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(d.Seconds() * rate))
	isLarge := make([]bool, n)
	for _, k := range rng.Perm(n)[:int(math.Round(float64(n)*largeFrac))] {
		isLarge[k] = true
	}
	specs := make([]sendSpec, n)
	var nextSmall, nextLarge int
	for k := range specs {
		at := (float64(k) + 0.1 + 0.8*rng.Float64()) / rate
		specs[k].at = time.Duration(at * float64(time.Second))
		if isLarge[k] {
			specs[k].inst = small + nextLarge%large
			nextLarge++
		} else {
			specs[k].inst = nextSmall % small
			nextSmall++
		}
		specs[k].seed = rng.Int63()
	}
	return specs
}

// server is an in-process mqoserve on a loopback listener.
type server struct {
	srv   *serve.Server
	url   string
	dir   string
	serve chan error
}

func startServer(root string, tr *tracer) (*server, error) {
	dir, err := os.MkdirTemp(root, "journal-")
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Fleet: serveFleet, Capacity: capacity, JournalDir: dir,
		// Deeper than any backlog the schedule can build, so nothing is
		// refused for queue space.
		QueueDepth: 256,
	}
	if tr != nil {
		cfg.Sink = tr.sink
		cfg.NewDevice = func(name string, capacity int) (solver.Solver, error) {
			if name != "" && name != "da" {
				return nil, fmt.Errorf("unexpected device %q", name)
			}
			return tr.device(&da.Solver{CapacityVars: capacity}), nil
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // nothing was admitted
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + l.Addr().String() + "/v1/solve", dir: dir, serve: make(chan error, 1)}
	go func() { s.serve <- srv.Serve(l) }()
	return s, nil
}

// stop drains the server, waits for its accept loop to end and removes
// its journal.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serve; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is one answered request as the client saw it.
type reply struct {
	resp     serve.SolveResponse
	gotConn  time.Time // connection obtained: the request starts to go out
	lastByte time.Time
}

// post sends one unary solve and reads the whole response. Anything but a
// 200 with a decodable body is an error.
func post(ctx context.Context, c *http.Client, url string, body []byte) (*reply, error) {
	var gotConn atomic.Int64
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn.Store(time.Now().UnixNano()) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
	}
	r := &reply{lastByte: end, gotConn: time.Unix(0, gotConn.Load())}
	if err := json.Unmarshal(rb, &r.resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return r, nil
}

// serveRun is serve-mixed after set-up: an in-process server on loopback
// HTTP (fleet 2, cache off, journal on), driven by an open loop over at
// most nproc connections.
type serveRun struct {
	seed   int64
	insts  []*servedInstance
	root   string
	srv    *server
	client *http.Client
	rounds int
}

func newClient() *http.Client {
	n := parallelism()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
}

func setUpServeMixed(ctx context.Context, seed int64) (workloadRun, error) {
	root := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	r := &serveRun{seed: seed, root: root, client: newClient()}
	for i := 0; i < serveSmall+serveLarge; i++ {
		q, class := 64, "q64"
		if i >= serveSmall {
			q, class = 128, "q128"
		}
		p, err := sweepInstance(q, derive(setupSeed, "serve/instance", i), meanDensity, meanDensity)
		if err != nil {
			return nil, err
		}
		js, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		_, greedy := incranneal.Greedy(p)
		r.insts = append(r.insts, &servedInstance{class: class, p: p, js: js, greedy: greedy})
	}
	srv, err := startServer(root, nil)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	for _, i := range []int{0, serveSmall} {
		in := r.insts[i]
		rep, err := post(ctx, r.client, srv.url, in.body(derive(setupSeed, "serve/warm-up", i)))
		if err == nil {
			err = verify(in.p, rep.resp.Selected, rep.resp.Cost)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up %s request: %w", in.class, err)
		}
	}
	return r, nil
}

func (r *serveRun) close() {
	r.client.CloseIdleConnections()
	if r.srv != nil {
		if err := r.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
		}
	}
}

func (r *serveRun) rungs() rungInput {
	in := rungInput{p: r.insts[serveSmall].p, seed: r.seed, bodies: map[string][]byte{}}
	for _, i := range []int{0, serveSmall} {
		in.bodies[r.insts[i].class] = r.insts[i].body(r.seed)
	}
	return in
}

func (r *serveRun) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	srv := r.srv
	if tr != nil {
		// Tracing is configured when a server starts, so a traced window
		// runs on a server of its own.
		var err error
		if srv, err = startServer(r.root, tr); err != nil {
			return nil, err
		}
		defer func() {
			if err := srv.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: stopping traced server:", err)
			}
		}()
	}
	r.rounds++
	sched := openLoopSchedule(derive(r.seed, "serve/schedule", r.rounds), serveRate, d, serveSmall, serveLarge, serveLargeFrac)
	w := &window{attempted: len(sched)}

	// The queue-depth sampler runs until measure returns.
	stopPoll := make(chan struct{})
	var pollDone sync.WaitGroup
	defer func() {
		close(stopPoll)
		pollDone.Wait()
	}()
	if reg := tr.registry(); reg != nil {
		depth := reg.Gauge("serve.queue.depth")
		pollDone.Add(1)
		go func() {
			defer pollDone.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if v := depth.Value(); v > w.queueDepthMax {
						w.queueDepthMax = v
					}
				}
			}
		}()
	}

	rt0 := readRuntime()
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range sched {
		due := start.Add(s.at)
		t := time.NewTimer(time.Until(due))
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
		if ctx.Err() != nil {
			break
		}
		in := r.insts[s.inst]
		wg.Add(1)
		go func(s sendSpec, due time.Time) {
			defer wg.Done()
			lag := time.Since(due)
			rep, err := post(ctx, r.client, srv.url, in.body(s.seed))
			if err == nil {
				err = verify(in.p, rep.resp.Selected, rep.resp.Cost)
			}
			mu.Lock()
			defer mu.Unlock()
			w.lagMs = append(w.lagMs, ms(lag))
			if err != nil {
				w.fail("serve-mixed %s request seed %d: %v", in.class, s.seed, err)
				return
			}
			res := rep.resp
			w.outcome(in.p, rep.lastByte.Sub(due), res.Cost, in.greedy, res.Partitions, res.Sweeps, res.DiscardedSavings, res.ReappliedSavings)
			w.queueMs = append(w.queueMs, float64(res.QueueMillis))
			w.solveMs = append(w.solveMs, float64(res.SolveMillis))
			w.outsideMs = append(w.outsideMs, ms(rep.lastByte.Sub(rep.gotConn))-float64(res.TotalMillis))
		}(s, due)
	}
	wg.Wait()
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	w.addRuntime(rt0, readRuntime())
	return w, nil
}
