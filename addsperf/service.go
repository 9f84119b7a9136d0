package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
	"repro/internal/gen"
	"repro/internal/service"
)

// The service workload's traffic: addsload's default mix of hits on a
// small pool of programs from the mixed profile, misses on fresh programs,
// and divergent (malformed) sources that must get a typed 422.
const (
	hitPool         = 16
	weightHit       = 6
	weightMiss      = 3
	weightDivergent = 1
	divergentKinds  = 8
	// directBuilds is how many fresh miss-like bodies the traced run
	// builds by calling the layers directly, for service.build_ms.
	directBuilds  = 60
	clientTimeout = 30 * time.Second
	// serviceRequestsPerSecond sizes a run: a run of S seconds sends the
	// first S x serviceRequestsPerSecond requests of its seed's plan, about
	// S seconds of traffic on two vCPUs of a shared x86-64 host. The
	// requests depend only on the seed and the length, so two runs of one
	// seed send the same ones.
	serviceRequestsPerSecond = 130
	// serviceChunks is how many consecutive slices of the plan the loop's
	// end-to-end metrics are taken over. A slice of a 20 s run holds 260
	// requests, so it has 26 beyond its 90th percentile.
	serviceChunks = 10
)

// serviceRequests is how many requests a run of the given window sends.
func serviceRequests(window time.Duration) int {
	return max(serviceChunks, int(window.Seconds()*serviceRequestsPerSecond))
}

// serviceJob is request i of the closed loop. Its kind and body depend
// only on the seed and i, never on timing.
type serviceJob struct {
	kind string // hit | miss | divergent
	pool int    // hit pool index or divergent variant
	body []byte
}

// splitmix64 is a stateless hash giving each request index its own draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func analyzeBody(src []byte) []byte {
	b, _ := json.Marshal(wire.AnalyzeRequest{Source: string(src)}) // a struct of strings always encodes
	return b
}

func mixedProfile() gen.Profile {
	p, _ := gen.ProfileByName("mixed") // a built-in profile
	return p
}

// poolSeed is the generator seed of hit-pool program k, and missSeed that
// of the j-th miss of a run, a fresh program no other request uses. Both
// are the same under every workload seed, which draws the order of the
// requests and which pool programs the hits ask for. A seed's own pool of
// full-size programs moved set-up time by more than half between seeds.
// A seed's own misses moved throughput by a quarter: a run's time is mostly
// its 780 misses at 20 s, and one miss in a hundred takes 10 to 100 times
// the median, so which ones a seed drew decided the sum (resampling 600
// measured misses into ten-run sets gave a spread of 0.10 from the draw
// alone).
func poolSeed(k int) int64 { return int64(k) }
func missSeed(j int) int64 { return hitPool + int64(j) }

// directSeed draws the traced run's direct-build bodies from a range no
// request uses.
func directSeed(seed int64, i int) int64 { return seed*1_000_003 - 1 - int64(i) }

func divergentBody(k int) []byte {
	return analyzeBody([]byte(fmt.Sprintf("void broken%d(TwoWayLL *p) {", k)))
}

// planJob draws request i. Each block of weightHit+weightMiss+weightDivergent
// consecutive requests holds exactly the mix's weights, in an order the seed
// shuffles, so every slice of the plan has the same share of misses.
func planJob(seed int64, i int, pool [][]byte) serviceJob {
	const block = weightHit + weightMiss + weightDivergent
	var slots [block]int
	for k := range slots {
		slots[k] = k
	}
	b := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(i/block) ^ 1<<63)
	for k := block - 1; k > 0; k-- { // Fisher-Yates
		j := int(b % uint64(k+1))
		b = splitmix64(b)
		slots[k], slots[j] = slots[j], slots[k]
	}
	isMiss := func(slot int) bool { return slot >= weightHit && slot < weightHit+weightMiss }
	r := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(i))
	switch pick := slots[i%block]; {
	case pick < weightHit:
		k := int((r >> 16) % hitPool)
		return serviceJob{kind: "hit", pool: k, body: pool[k]}
	case isMiss(pick):
		j := i / block * weightMiss // misses in earlier blocks
		for _, slot := range slots[:i%block] {
			if isMiss(slot) {
				j++
			}
		}
		return serviceJob{kind: "miss", body: analyzeBody(gen.Generate(missSeed(j), mixedProfile()).Source())}
	default:
		k := int((r >> 16) % divergentKinds)
		return serviceJob{kind: "divergent", pool: k, body: divergentBody(k)}
	}
}

// accessLog keeps the server's access-log queue waits in memory.
type accessLog struct {
	mu    sync.Mutex
	waits []float64 // ms, flights that computed (cache outcome "miss")
}

func (a *accessLog) Enabled(context.Context, slog.Level) bool { return true }
func (a *accessLog) WithAttrs([]slog.Attr) slog.Handler       { return a }
func (a *accessLog) WithGroup(string) slog.Handler            { return a }

func (a *accessLog) Handle(_ context.Context, r slog.Record) error {
	var cache string
	var wait time.Duration
	r.Attrs(func(at slog.Attr) bool {
		switch at.Key {
		case "cache":
			cache = at.Value.String()
		case "queueWait":
			wait = at.Value.Duration()
		}
		return true
	})
	if cache == "miss" {
		a.mu.Lock()
		a.waits = append(a.waits, ms(wait))
		a.mu.Unlock()
	}
	return nil
}

func (a *accessLog) reset() {
	a.mu.Lock()
	a.waits = nil
	a.mu.Unlock()
}

func (a *accessLog) snapshot() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]float64(nil), a.waits...)
}

// liveServer is an in-process analysis server on a loopback port.
type liveServer struct {
	srv  *service.Server
	http *http.Server
	base string
	log  *accessLog
	done chan error
}

func startServer(workers int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	log := &accessLog{}
	s := service.New(service.Config{Workers: workers, Logger: slog.New(log)})
	ls := &liveServer{
		srv:  s,
		http: &http.Server{Handler: s.Handler()},
		base: "http://" + ln.Addr().String(),
		log:  log,
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// close stops the server and waits for its serve loop to return.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if serveErr := <-ls.done; !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// sample is one completed request of the closed loop.
type sample struct {
	job     serviceJob
	index   int
	status  int
	latency time.Duration
	done    time.Duration // when the reply arrived, from the loop's start
	body    [sha256.Size]byte
	size    int
	err     error
}

func post(client *http.Client, base string, body []byte) (int, []byte, error) {
	resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serviceRefs are the expected reply bytes: direct BuildAnalyze encodings
// for hits, the typed error envelope for divergent sources.
type serviceRefs struct {
	hit       [][sha256.Size]byte
	divergent [][]byte
}

// expectedReply encodes what /v1/analyze must answer for a body, computed
// by calling the product's BuildAnalyze directly: 200 with the encoded
// response, or 422 with the error envelope for a source error.
func expectedReply(ctx context.Context, body []byte) (int, []byte, error) {
	var req wire.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, nil, err
	}
	resp, err := service.BuildAnalyze(ctx, &req)
	if err != nil {
		var se *adds.SourceError
		if !errors.As(err, &se) {
			return 0, nil, err
		}
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(wire.ErrorEnvelope{Error: err.Error(), Line: se.Line, Col: se.Col}); err != nil {
			return 0, nil, err
		}
		return http.StatusUnprocessableEntity, b.Bytes(), nil
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, append(b, '\n'), nil
}

func runService(cfg config) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	client := &http.Client{
		Timeout:   clientTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: cfg.workers, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	// Set-up: start the server, generate the hit pool and warm it, so the
	// measured hits are cache hits.
	setup := processCPU()
	srv, err := startServer(cfg.workers)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	pool := make([][]byte, hitPool)
	for k := range pool {
		pool[k] = analyzeBody(gen.Generate(poolSeed(k), mixedProfile()).Source())
		if status, _, err := post(client, srv.base, pool[k]); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("service: warming the hit pool: status %d, %v", status, err)
		}
	}
	o.values["setup_s"] = (processCPU() - setup).Seconds()
	if cfg.setupOnly {
		return o, nil
	}

	refs, err := hitAndDivergentRefs(ctx, pool)
	if err != nil {
		return nil, err
	}

	srv.log.reset()
	m := srv.srv.Metrics()
	hits0, misses0, coal0, shed0 := m.CacheHits(), m.CacheMisses(), m.CacheCoalesced(), m.ShedTotal()
	samples := closedLoop(client, srv.base, cfg, pool, serviceRequests(cfg.window))
	// Memory is read before the references add their own.
	o.values["process.peak_rss_mb"] = procStatusMB("VmHWM")
	hits, misses := m.CacheHits()-hits0, m.CacheMisses()-misses0
	coalesced, shed := m.CacheCoalesced()-coal0, m.ShedTotal()-shed0
	waits := srv.log.snapshot()

	refStart := time.Now()
	checkServiceReplies(ctx, o, samples, refs, cfg.workers)
	referenceTime := time.Since(refStart)

	// Throughput is requests over the whole loop: a few misses take a
	// hundred times the median, and a slice of the plan holds too few of
	// them for its rate to be steady. The percentiles are taken per slice
	// and reported as the median over the slices: a burst of contention on
	// the shared machine moves one slice, not the result.
	var lat, hitLat, missLat []float64
	var p50s, p90s []float64
	var bytesOut int
	var last time.Duration
	for c := 0; c < serviceChunks; c++ {
		var chunk []float64
		for _, s := range samples[c*len(samples)/serviceChunks : (c+1)*len(samples)/serviceChunks] {
			l := ms(s.latency)
			if s.err != nil || s.status >= 500 || s.status == http.StatusTooManyRequests {
				l = ms(clientTimeout) // a failed request misses every latency limit
			}
			chunk = append(chunk, l)
			switch s.job.kind {
			case "hit":
				hitLat = append(hitLat, l)
			case "miss":
				missLat = append(missLat, l)
			}
			bytesOut += s.size
			last = max(last, s.done)
		}
		lat = append(lat, chunk...)
		p50s, p90s = append(p50s, percentile(chunk, 0.50)), append(p90s, percentile(chunk, 0.90))
	}
	o.values["throughput_per_s"] = float64(len(samples)) / last.Seconds()
	o.values["latency_p50_ms"] = percentile(p50s, 0.5)
	o.values["latency_p90_ms"] = percentile(p90s, 0.5)

	if cfg.trace {
		o.values["service.hit_ms_p50"] = percentile(hitLat, 0.50)
		o.values["service.miss_ms_p50"] = percentile(missLat, 0.50)
		o.values["service.latency_p99_ms"] = percentile(lat, 0.99)
		o.values["service.queue_wait_ms_p99"] = percentile(waits, 0.99)
		o.values["service.hit_frac"] = frac(hits, misses+coalesced)
		o.values["service.coalesced"] = float64(coalesced)
		o.values["service.shed"] = float64(shed)
		o.values["service.resp_kb"] = float64(bytesOut) / float64(len(samples)) / 1024
		if err := directBuildsReport(ctx, o, cfg, referenceTime); err != nil {
			return nil, err
		}
		o.values["service.overhead_ms"] = o.values["service.miss_ms_p50"] - o.values["service.build_ms"]
	}
	return o, nil
}

func hitAndDivergentRefs(ctx context.Context, pool [][]byte) (*serviceRefs, error) {
	refs := &serviceRefs{}
	for k, body := range pool {
		status, b, err := expectedReply(ctx, body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("service: reference for hit-pool program %d: status %d, %v", k, status, err)
		}
		refs.hit = append(refs.hit, sha256.Sum256(b))
	}
	for k := 0; k < divergentKinds; k++ {
		status, b, err := expectedReply(ctx, divergentBody(k))
		if err != nil || status != http.StatusUnprocessableEntity {
			return nil, fmt.Errorf("service: reference for divergent source %d: status %d, %v", k, status, err)
		}
		refs.divergent = append(refs.divergent, b)
	}
	return refs, nil
}

// serviceClients is how many connections the closed loop keeps busy: one
// fewer than the CPUs, so the server's garbage collector and network
// poller have a CPU of their own. With as many connections as CPUs, every
// CPU was busy throughout the loop, and three runs of the same requests on
// two vCPUs gave 90th percentiles from 16.5 to 22.4 ms; with one
// connection, two runs gave 15.4 and 15.1 ms.
func serviceClients(cpus int) int { return max(1, cpus-1) }

// closedLoop runs serviceClients clients, each sending its next request
// only after the previous reply, until the plan's first n requests are
// answered. Request indices come from a shared counter. It returns the
// samples in index order.
func closedLoop(client *http.Client, base string, cfg config, pool [][]byte, n int) []sample {
	var next atomic.Int64
	clients := serviceClients(cfg.workers)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				job := planJob(cfg.seed, i, pool)
				t0 := time.Now()
				status, body, err := post(client, base, job.body)
				per[w] = append(per[w], sample{
					job: job, index: i, status: status, latency: time.Since(t0), done: time.Since(start),
					body: sha256.Sum256(body), size: len(body), err: err,
				})
			}
		}(w)
	}
	wg.Wait()
	samples := make([]sample, n)
	for _, ss := range per {
		for _, s := range ss {
			samples[s.index] = s
		}
	}
	return samples
}

// checkServiceReplies compares every reply with its reference. Miss
// references are direct BuildAnalyze calls made after the loop, spread over
// the workers.
func checkServiceReplies(ctx context.Context, o *outcome, samples []sample, refs *serviceRefs, workers int) {
	missWant := make([][sha256.Size]byte, len(samples))
	missErr := make([]error, len(samples))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				if samples[i].job.kind != "miss" {
					continue
				}
				status, b, err := expectedReply(ctx, samples[i].job.body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("reference status %d", status)
				}
				missWant[i], missErr[i] = sha256.Sum256(b), err
			}
		}()
	}
	wg.Wait()

	for i, s := range samples {
		o.attempted++
		what := fmt.Sprintf("service request %d (%s)", s.index, s.job.kind)
		switch {
		case s.err != nil:
			o.fail(false, fmt.Sprintf("%s: %v", what, s.err))
		case s.job.kind == "divergent":
			if s.status != http.StatusUnprocessableEntity || s.body != sha256.Sum256(refs.divergent[s.job.pool]) {
				o.fail(false, fmt.Sprintf("%s: status %d, want the typed 422 envelope", what, s.status))
			}
		case s.status != http.StatusOK:
			o.fail(false, fmt.Sprintf("%s: status %d", what, s.status))
		case s.job.kind == "hit" && s.body != refs.hit[s.job.pool]:
			o.fail(false, fmt.Sprintf("%s: reply differs from BuildAnalyze", what))
		case s.job.kind == "miss" && missErr[i] != nil:
			o.fail(false, fmt.Sprintf("%s: reference: %v", what, missErr[i]))
		case s.job.kind == "miss" && s.body != missWant[i]:
			o.fail(false, fmt.Sprintf("%s: reply differs from BuildAnalyze", what))
		}
	}
}

// directBuildsReport times the /v1/analyze work on fresh miss-like bodies
// by calling the layers directly, one at a time on an idle server, and
// reports the per-layer metrics from those builds. Each build is checked
// byte for byte against BuildAnalyze. checks is the time the loop's reply
// checks took; the builds' own checks add to it.
func directBuildsReport(ctx context.Context, o *outcome, cfg config, checks time.Duration) error {
	ls := &layerStats{referenceTime: checks}
	c := &compiler{tr: cfg.tr, ls: ls}
	var builds []float64
	var busy time.Duration
	for i := 0; i < directBuilds; i++ {
		o.attempted++
		req := &wire.AnalyzeRequest{Source: string(gen.Generate(directSeed(cfg.seed, i), mixedProfile()).Source())}
		before := pathmatrix.ReadStats()
		t0 := time.Now()
		_, got, err := c.serve(ctx, req)
		d := time.Since(t0)
		ls.item(fmt.Sprint(i), before, pathmatrix.ReadStats())
		if err != nil {
			return fmt.Errorf("service: direct build %d: %w", i, err)
		}
		builds = append(builds, ms(d))
		busy += d
		r0 := time.Now()
		_, want, err := expectedReply(ctx, analyzeBody([]byte(req.Source)))
		ls.referenceTime += time.Since(r0)
		if err != nil || !bytes.Equal(append(got, '\n'), want) {
			o.fail(false, fmt.Sprintf("service direct build %d differs from BuildAnalyze (%v)", i, err))
		}
	}
	ls.report(o, cfg.tr, directBuilds, busy)
	o.values["service.build_ms"] = percentile(builds, 0.50)
	return nil
}
