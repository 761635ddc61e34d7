package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"pab/internal/scenario"
	"pab/internal/sim"
	"pab/internal/telemetry"
)

// server is an in-process HTTP service on loopback.
type server struct {
	URL  string
	srv  *http.Server
	done chan error
}

func serveLoopback(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and waits for the serve goroutine.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// newClient returns a keep-alive client holding at most nproc
// connections.
func newClient() (*http.Client, func()) {
	n := runtime.NumCPU()
	t := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, IdleConnTimeout: time.Minute}
	return &http.Client{Transport: t, Timeout: time.Minute}, t.CloseIdleConnections
}

// Sweep batch shape: sweepFresh new specs and a repeat after every
// third, 8 specs per batch, well inside the default 64-slot queue. The
// first repeat copies a spec of the previous batch (a cache hit), the
// second an earlier spec of the same batch (in-flight dedupe).
const (
	sweepFresh = 6
	// sweepBatches bounds the batches generated in set-up; a run that
	// exhausts them stops early and says so.
	sweepBatches = 100
)

type sweepBatch struct {
	Specs  []scenario.Spec
	Repeat []bool // Repeat[i]: Specs[i] copies an earlier spec
}

// sweepSpecs draws the seed's batches. Fresh specs cycle through pool,
// bitrate, poll count and command so every batch has the same mix;
// positions and seeds are random, and positions where a node cannot
// power up are re-drawn.
func sweepSpecs(seed int64) ([]sweepBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sweepBatch, 0, sweepBatches)
	var prev []scenario.Spec
	for b := 0; b < sweepBatches; b++ {
		var batch sweepBatch
		fresh := make([]scenario.Spec, 0, sweepFresh)
		for i := 0; i < sweepFresh; i++ {
			pool := pools[i%len(pools)]
			bitrate := gridBitrate(requestedBitrates[(i+b)%len(requestedBitrates)])
			polls := 2 + (i+b)%3
			readSensor := (i/2+b)%2 == 1
			var sp scenario.Spec
			ok := false
			for draw := 0; draw < maxDraws && !ok; draw++ {
				sp = linkSpec(rng.Int63n(1<<40)+1, pool, drawPos(rng, pool), bitrate, 0, polls, readSensor)
				_, err := buildLink(sp)
				ok = err == nil
			}
			if !ok {
				return nil, fmt.Errorf("sweep spec %d/%d: no powered position in %d draws", b, i, maxDraws)
			}
			fresh = append(fresh, sp)
		}
		// Interleave: a repeat after every third fresh spec.
		for i, sp := range fresh {
			batch.Specs = append(batch.Specs, sp)
			batch.Repeat = append(batch.Repeat, false)
			if i%3 == 2 {
				var rep scenario.Spec
				if i == 2 && prev != nil {
					rep = prev[rng.Intn(len(prev))]
				} else {
					rep = fresh[rng.Intn(i+1)]
				}
				batch.Specs = append(batch.Specs, rep)
				batch.Repeat = append(batch.Repeat, true)
			}
		}
		prev = fresh
		out = append(out, batch)
	}
	return out, nil
}

type sweepState struct {
	batches []sweepBatch
	sched   *sim.Scheduler
	srv     *server
}

func (s *sweepState) close() {
	s.srv.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.sched.Shutdown(ctx) // queue is empty once the last batch is read
}

// setupSweep draws the specs and starts pabd's scheduler and HTTP API
// with the daemon's default flags: GOMAXPROCS workers, 64-slot queue,
// memory-only store, 3 attempts per job.
func setupSweep(seed int64) (*sweepState, func(), error) {
	batches, err := sweepSpecs(seed)
	if err != nil {
		return nil, nil, err
	}
	sched, err := sim.New(sim.Config{Retry: sim.RetryPolicy{MaxAttempts: 3}}, sim.ScenarioRunner)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serveLoopback(sim.NewServer(sched).Handler())
	if err != nil {
		sched.Shutdown(context.Background())
		return nil, nil, err
	}
	st := &sweepState{batches: batches, sched: sched, srv: srv}
	return st, st.close, nil
}

type batchReply struct {
	Batch sim.Batch `json:"batch"`
}

type streamRow struct {
	ID     string          `json:"id"`
	State  sim.JobState    `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// runSweep is the sweep workload: one closed-loop client submits a
// batch, reads its result stream to the end, then submits the next.
func runSweep(seed int64, seconds float64, tr *tracer, res *result) error {
	st, closeFn, setupS, err := repeatSetup(setupRepeats, func() (*sweepState, func(), error) { return setupSweep(seed) })
	if err != nil {
		return err
	}
	defer closeFn()
	res.E2E["setup_s"] = setupS
	res.add("setup_s", setupS, "s", fmt.Sprintf("CPU time, median of %d set-ups (specs, node power-up, server start)", setupRepeats))
	client, closeIdle := newClient()
	defer closeIdle()

	reg := telemetry.Default()
	hits0 := reg.Counter(telemetry.MSimCacheHitsTotal).Value()
	dedup0 := reg.Counter(telemetry.MSimJobsDedupedTotal).Value()
	firstResult := make(map[string][]byte)
	var lat, batchCPU, queueWait, runS, delay []float64
	var jobs, done, repeated, pollsTried, pollsFailed int
	heap := startHeapSampler()
	dur := time.Duration(seconds * float64(time.Second))
	start, cpuStart := time.Now(), cpuTime()
	var last time.Time
	var cpuLast time.Duration
	b := 0
	for ; b < len(st.batches) && time.Since(start) < dur; b++ {
		batch := st.batches[b]
		bsp := tr.start("sweep.batch", int64(b), nil)
		jobs += len(batch.Specs)
		for _, rep := range batch.Repeat {
			if rep {
				repeated++
			}
		}
		polls := func(i int) int { return batch.Specs[i].MAC.Polls }
		failBatch := func(why string) {
			res.note("batch %d: %s", b, why)
			res.Failed += len(batch.Specs)
			for i := range batch.Specs {
				pollsTried += polls(i)
				pollsFailed += polls(i)
			}
		}
		body, err := json.Marshal(map[string]any{"specs": batch.Specs})
		if err != nil {
			return err
		}
		sp := tr.start("http.POST /v1/batches", int64(b), bsp)
		submitted, cpuSubmitted := time.Now(), cpuTime()
		resp, err := client.Post(st.srv.URL+"/v1/batches", "application/json", bytes.NewReader(body))
		if err != nil {
			sp.end()
			failBatch(err.Error())
			bsp.end()
			continue
		}
		var reply batchReply
		derr := json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		sp.end()
		if resp.StatusCode != http.StatusAccepted || derr != nil {
			failBatch(fmt.Sprintf("submit answered %s", resp.Status))
			bsp.end()
			continue
		}
		sp = tr.start("http.GET /v1/batches/{id}/stream", int64(b), bsp)
		rows, rowAt, err := readRows(client, st.srv.URL+"/v1/batches/"+reply.Batch.ID+"/stream")
		cpuLast = cpuTime()
		sp.end()
		batchCPU = append(batchCPU, ms(cpuLast-cpuSubmitted))
		if err != nil {
			failBatch(err.Error())
			bsp.end()
			continue
		}
		if len(rows) != len(batch.Specs) {
			res.note("batch %d: %d rows for %d specs", b, len(rows), len(batch.Specs))
		}
		for i := range batch.Specs {
			pollsTried += polls(i)
			if i >= len(rows) {
				res.Failed++
				pollsFailed += polls(i)
				continue
			}
			row := rows[i]
			lat = append(lat, ms(rowAt[i].Sub(submitted)))
			last = rowAt[i]
			var out scenario.Result
			if row.State != sim.JobDone || json.Unmarshal(row.Result, &out) != nil || out.Link == nil {
				res.Failed++
				pollsFailed += polls(i)
				res.note("batch %d job %s ended %s %s", b, row.ID, row.State, row.Error)
				continue
			}
			done++
			pollsFailed += out.Link.Polls - out.Link.Replies
			if prev, ok := firstResult[row.ID]; ok {
				if !bytes.Equal(prev, row.Result) {
					res.Failed++
					res.note("batch %d: repeated spec %s returned a different result", b, row.ID)
				}
			} else {
				firstResult[row.ID] = append([]byte(nil), row.Result...)
			}
		}
		if tr != nil {
			// Traced only: the scheduler's own view of each fresh job.
			for i, row := range rows {
				if batch.Repeat[i] {
					continue
				}
				v, err := jobView(client, st.srv.URL, row.ID)
				if err != nil || v.Cached || v.FinishedAt == nil {
					continue
				}
				queueWait = append(queueWait, v.QueueWaitS*1000)
				runS = append(runS, v.RunS*1000)
				delay = append(delay, ms(rowAt[i].Sub(*v.FinishedAt)))
			}
		}
		bsp.end()
	}
	peak := heap.finish()
	if b == len(st.batches) && time.Since(start) < dur {
		res.note("ran out of generated batches after %d", b)
	}
	res.Attempted = jobs
	elapsed, cpuS := last.Sub(start).Seconds(), (cpuLast - cpuStart).Seconds()
	res.add("peak_heap_mb", peak, "MiB", heapNote)
	res.add("sweep_jobs_per_s", float64(done)/elapsed, "jobs/s", fmt.Sprintf("%d jobs in %d batches, %.2f s", done, b, elapsed))
	res.addTail("sweep_job", lat, nil)
	perCPU := float64(done) / cpuS
	res.add("sweep_jobs_per_cpu_s", perCPU, "jobs/s", fmt.Sprintf("%d jobs in %.2f s of process CPU time", done, cpuS))
	// Jobs run concurrently, so CPU time is told per batch: everything
	// the process did from the submit to the batch's last result row.
	p50, tail := res.addTail("sweep_batch_cpu", batchCPU, nil)
	failRatio := float64(pollsFailed) / float64(max(pollsTried, 1))
	res.add("sweep_poll_fail_ratio", failRatio, "ratio", fmt.Sprintf("%d of %d polls", pollsFailed, pollsTried))
	res.E2E["peak_heap_mb"], res.E2E["ops_per_cpu_s"], res.E2E["cpu_ms_p50"], res.E2E["cpu_ms_tail"] = peak, perCPU, p50, tail
	if tr == nil {
		return nil
	}
	hits := reg.Counter(telemetry.MSimCacheHitsTotal).Value() - hits0
	dedup := reg.Counter(telemetry.MSimJobsDedupedTotal).Value() - dedup0
	res.layer("sweep.poll_fail_ratio", failRatio)
	res.layer("sim.cache_hit_ratio", float64(hits+dedup)/float64(max(repeated, 1)))
	res.layer("sim.queue_wait_ms_p50", newDist(queueWait).p50())
	res.layer("sim.run_ms_p50", newDist(runS).p50())
	res.layer("sim.result_delay_ms_p50", newDist(delay).p50())
	res.add("sim.cache_events", float64(hits+dedup), "count", fmt.Sprintf("%d cache hits + %d dedupes for %d repeated specs", hits, dedup, repeated))
	spansInLoop := tr.count()
	if err := replayLayers(st.batches, tr, res); err != nil {
		return err
	}
	res.layer("trace.overhead_share", float64(spansInLoop)*float64(spanCost())/float64(last.Sub(start)))
	return nil
}

// readRows reads a batch's NDJSON result stream, stamping each row's
// arrival.
func readRows(client *http.Client, url string) ([]streamRow, []time.Time, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("stream answered %s", resp.Status)
	}
	var rows []streamRow
	var at []time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		var row streamRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, nil, fmt.Errorf("bad stream row: %w", err)
		}
		rows = append(rows, row)
		at = append(at, time.Now())
	}
	return rows, at, sc.Err()
}

func jobView(client *http.Client, base, id string) (sim.JobView, error) {
	var v sim.JobView
	resp, err := client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse; the status is the error
		return v, fmt.Errorf("job %s: %s", id, resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}
