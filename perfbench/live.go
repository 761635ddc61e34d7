package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pab/internal/core"
	"pab/internal/stream"
	"pab/internal/stream/streamd"
)

// Offered load of the live workload: liveSessions streams at 1x real
// time in 50 ms chunks. Today's decoder needs about 40% of a core for
// one stream at 500 bit/s, and its decode attempts arrive in bursts of
// 100-300 ms; one stream keeps up with headroom and leaves the second
// core of a 2-core box to the collector, the HTTP server and the
// generator. The count is fixed so results compare across machines.
const (
	liveSessions = 1
	chunkPeriod  = 50 * time.Millisecond
	chunkSamples = int(sampleRate * 0.05)
	// inProcessChunks bounds the traced run's in-process replay of one
	// session through stream.Decoder.Write.
	inProcessChunks = 120
)

// liveDecoderConfig is pabstream's default decoder: 96 kHz, 15 kHz
// carrier, 500 bit/s quantised to the node clock divider.
func liveDecoderConfig() stream.Config {
	return stream.Config{SampleRate: sampleRate, CarrierHz: carrierHz, BitrateBps: gridBitrate(500)}
}

// livePacket is one recording's uplink inside a session sequence.
type livePacket struct {
	start, end int64 // the recording's span in the sequence, samples
	payload    []byte
}

// liveSession is one stream's input: the corpus's 500 bit/s recordings
// back to back as f64le volts, looped for as long as the run lasts.
type liveSession struct {
	id      string
	pcm     []byte
	samples int64
	packets []livePacket
}

// chunk returns chunk c of the looped sequence.
func (s *liveSession) chunk(c int, buf []byte) []byte {
	buf = buf[:0]
	for i := int64(c) * int64(chunkSamples); i < int64(c+1)*int64(chunkSamples); {
		off := i % s.samples
		n := min(int64(chunkSamples)-(i-int64(c)*int64(chunkSamples)), s.samples-off)
		buf = append(buf, s.pcm[off*8:(off+n)*8]...)
		i += n
	}
	return buf
}

// liveState is a running pabstream API and the sessions opened on it.
type liveState struct {
	sessions []*liveSession
	hub      *streamd.Hub
	srv      *server
}

// close stops the API, then drains the hub, which stops its reaper.
func (s *liveState) close() {
	s.srv.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hub.Drain(ctx) // sessions left open only on an error path; their frames are not wanted
}

// liveSequence returns the corpus's 500 bit/s recordings that live
// replays, in volts as a hydrophone front end delivers them.
//
// Near-threshold recordings stay out: whether one fails is random per
// seed, and the recording after a near-threshold one can cost the
// stream decoder several times real time, so live latency would depend
// on the seed's luck. afterLoss measures that stall on every seed.
func liveSequence(corpus []*recording) ([]*recording, [][]float64, error) {
	recv, err := core.NewReceiver(sampleRate)
	if err != nil {
		return nil, nil, err
	}
	var recs []*recording
	var volts [][]float64
	for _, r := range corpus {
		if r.Bitrate != gridBitrate(500) || r.NoisePa >= nearThresholdPa {
			continue
		}
		v, err := recv.Hydro.Record(r.Pressure)
		if err != nil {
			return nil, nil, err
		}
		recs, volts = append(recs, r), append(volts, v)
	}
	return recs, volts, nil
}

// newLiveSession lays the recordings out back to back as f64le PCM,
// starting with recording first.
func newLiveSession(recs []*recording, volts [][]float64, first int) *liveSession {
	s := &liveSession{}
	for j := range recs {
		i := (j + first) % len(recs)
		s.packets = append(s.packets, livePacket{start: s.samples, end: s.samples + int64(len(volts[i])), payload: recs[i].Payload})
		s.samples += int64(len(volts[i]))
		for _, v := range volts[i] {
			s.pcm = binary.LittleEndian.AppendUint64(s.pcm, math.Float64bits(v))
		}
	}
	return s
}

// startStreamd starts pabstream's hub and HTTP API with the daemon's
// defaults on loopback.
func startStreamd() (*liveState, error) {
	hub := streamd.NewHub(streamd.Config{
		Decoder: liveDecoderConfig(), IdleTimeout: time.Minute, RetryAfter: time.Second,
	})
	srv, err := serveLoopback(streamd.NewServer(hub).Handler())
	if err != nil {
		_ = hub.Drain(context.Background()) // no session was opened; this stops the reaper
		return nil, err
	}
	return &liveState{hub: hub, srv: srv}, nil
}

// openStream opens one f64le stream and returns its id.
func openStream(client *http.Client, base string) (string, error) {
	resp, err := client.Post(base+"/v1/streams", "application/json", bytes.NewReader([]byte(`{"format":"f64le"}`)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil || resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("open stream: %s", resp.Status)
	}
	return opened.ID, nil
}

// setupLive synthesises the corpus, starts pabstream's hub and API and
// opens the sessions.
func setupLive(seed int64, client *http.Client) (*liveState, func(), error) {
	corpus, err := synthCorpus(seed)
	if err != nil {
		return nil, nil, err
	}
	recs, volts, err := liveSequence(corpus)
	if err != nil {
		return nil, nil, err
	}
	st, err := startStreamd()
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < liveSessions; k++ {
		// Each session starts at its own place in the sequence.
		s := newLiveSession(recs, volts, k*len(recs)/liveSessions)
		if s.id, err = openStream(client, st.srv.URL); err != nil {
			st.close()
			return nil, nil, err
		}
		st.sessions = append(st.sessions, s)
	}
	return st, st.close, nil
}

// chunkResult is one chunk of an open-loop schedule.
type chunkResult struct {
	due, sent, ack time.Time
	err            error
}

func (c chunkResult) latency() time.Duration { return c.ack.Sub(c.due) }

// runSchedule sends n chunks on a fixed schedule, chunk i due at
// start+i·period, whatever the server does. A session's chunks must
// arrive in order, so chunk i goes out once it is due and chunk i−1 is
// acked; a server stall therefore shows as latency on every later chunk
// measured from its due time. late is how far the generator itself ran
// behind: the send time minus the later of due time and previous ack.
func runSchedule(start time.Time, period time.Duration, n int, send func(i int) (time.Time, error)) (out []chunkResult, late time.Duration) {
	out = make([]chunkResult, n)
	prevAck := start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ready := due
		if prevAck.After(ready) {
			ready = prevAck
		}
		late = max(late, sent.Sub(ready))
		ack, err := send(i)
		out[i] = chunkResult{due: due, sent: sent, ack: ack, err: err}
		prevAck = ack
	}
	return out, late
}

// frameRow is the part of a pabstream frame row the check needs.
type frameRow struct {
	Type    string `json:"type"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Payload []byte `json:"payload"`
	Error   string `json:"error"`
	at      time.Time
}

// postChunk sends one chunk and reads its NDJSON reply to the ack.
func postChunk(client *http.Client, url string, body []byte) ([]frameRow, time.Time, error) {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, time.Now(), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Now(), fmt.Errorf("chunk answered %s", resp.Status)
	}
	var frames []frameRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row frameRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return frames, time.Now(), fmt.Errorf("bad row: %w", err)
		}
		row.at = time.Now()
		switch {
		case row.Error != "":
			return frames, row.at, fmt.Errorf("chunk rejected: %s", row.Error)
		case row.Type == "frame":
			frames = append(frames, row)
		case row.Type == "ack":
			return frames, row.at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return frames, time.Now(), err
	}
	return frames, time.Now(), fmt.Errorf("reply ended without an ack")
}

// closeStream flushes and closes a session, returning its last frames.
func closeStream(client *http.Client, url string) ([]frameRow, error) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var frames []frameRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row frameRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return frames, err
		}
		if row.Type == "frame" {
			row.at = time.Now()
			frames = append(frames, row)
		}
	}
	return frames, sc.Err()
}

// sessionRun is what one session's generator saw.
type sessionRun struct {
	chunks []chunkResult
	cpu    []float64 // process CPU ms from each chunk's send to its ack
	frames []frameRow
	tail   []frameRow // from the closing flush
	late   time.Duration
}

// runLive is the live workload: liveSessions open-loop generators feed
// pabstream in real time over a keep-alive pool of at most nproc
// connections.
func runLive(seed int64, seconds float64, tr *tracer, res *result) error {
	client, closeIdle := newClient()
	defer closeIdle()
	st, closeFn, setupS, err := repeatSetup(setupRepeats, func() (*liveState, func(), error) { return setupLive(seed, client) })
	if err != nil {
		return err
	}
	defer closeFn()
	res.E2E["setup_s"] = setupS
	res.add("setup_s", setupS, "s", fmt.Sprintf("CPU time, median of %d set-ups (corpus, server start, %d stream opens)", setupRepeats, liveSessions))

	runtime.GC()
	n := int(math.Round(seconds * float64(time.Second) / float64(chunkPeriod)))
	runs := make([]sessionRun, len(st.sessions))
	heap := startHeapSampler()
	start, cpuStart := time.Now().Add(chunkPeriod), cpuTime()
	var wg sync.WaitGroup
	for k, s := range st.sessions {
		wg.Add(1)
		go func(k int, s *liveSession) {
			defer wg.Done()
			url := st.srv.URL + "/v1/streams/" + s.id + "/chunks"
			buf := make([]byte, 0, chunkSamples*8)
			r := &runs[k]
			r.chunks, r.late = runSchedule(start, chunkPeriod, n, func(i int) (time.Time, error) {
				buf = s.chunk(i, buf)
				sp := tr.start("http.POST /v1/streams/{id}/chunks", int64(k)*1_000_000+int64(i), nil)
				c0 := cpuTime()
				frames, ack, err := postChunk(client, url, buf)
				r.cpu = append(r.cpu, ms(cpuTime()-c0))
				sp.end()
				r.frames = append(r.frames, frames...)
				return ack, err
			})
		}(k, s)
	}
	wg.Wait()
	cpuS := (cpuTime() - cpuStart).Seconds()
	peak := heap.finish()

	for k, s := range st.sessions {
		tail, err := closeStream(client, st.srv.URL+"/v1/streams/"+s.id)
		if err != nil {
			return fmt.Errorf("close stream: %w", err)
		}
		runs[k].tail = tail
	}
	var lat, cpuLat, frameLat []float64
	var due, acked, missed, lost, sent int
	var lastAck time.Time
	var late time.Duration
	for k, s := range st.sessions {
		r := runs[k]
		late = max(late, r.late)
		cpuLat = append(cpuLat, r.cpu...)
		for _, c := range r.chunks {
			due++
			if c.err != nil {
				missed++
				res.Failed++
				res.note("session %d chunk: %v", k, c.err)
				continue
			}
			acked++
			lat = append(lat, ms(c.latency()))
			if c.latency() > chunkPeriod {
				missed++
			}
			if c.ack.After(lastAck) {
				lastAck = c.ack
			}
		}
		m := matchFrames(s, int64(n)*int64(chunkSamples), r.frames, r.tail)
		sent += m.sent
		lost += m.sent - m.matched
		res.Failed += m.falseFrames
		if m.falseFrames > 0 {
			res.note("session %d: %d frame rows match no packet sent", k, m.falseFrames)
		}
		for _, f := range m.timed {
			lastChunk := int((f.End - 1) / int64(chunkSamples))
			frameLat = append(frameLat, ms(f.at.Sub(start.Add(time.Duration(lastChunk)*chunkPeriod))))
		}
	}
	res.Attempted = due
	elapsed := lastAck.Sub(start).Seconds()
	perS := float64(acked) / elapsed
	res.add("peak_heap_mb", peak, "MiB", heapNote)
	res.add("live_chunks_per_s", perS, "chunks/s", fmt.Sprintf("%d offered per session", int(time.Second/chunkPeriod)))
	res.addTail("live_chunk", lat, nil)
	perCPU := float64(acked) / cpuS
	res.add("live_chunks_per_cpu_s", perCPU, "chunks/s", fmt.Sprintf("%d chunks in %.2f s of process CPU time", acked, cpuS))
	p50, tail := res.addTail("live_chunk_cpu", cpuLat, nil)
	frameP50 := newDist(frameLat).p50()
	res.add("live_frame_p50_ms", frameP50, "ms", fmt.Sprintf("of %d frames", len(frameLat)))
	missRatio := float64(missed) / float64(due)
	lossRatio := float64(lost) / float64(max(sent, 1))
	res.add("live_deadline_miss_ratio", missRatio, "ratio", fmt.Sprintf("%d of %d chunks", missed, due))
	res.add("live_frame_loss_ratio", lossRatio, "ratio", fmt.Sprintf("%d of %d packets", lost, sent))
	res.add("live_gen_late_ms_max", ms(late), "ms", "validity check: generator lateness, not a program metric")
	res.E2E["peak_heap_mb"], res.E2E["ops_per_cpu_s"], res.E2E["cpu_ms_p50"], res.E2E["cpu_ms_tail"] = peak, perCPU, p50, tail
	if ms(late) > float64(chunkPeriod/time.Millisecond) {
		res.note("load generator ran %.1f ms late: the offered load was not met", ms(late))
	}
	if tr == nil {
		return nil
	}
	res.layer("live.frame_p50_ms", frameP50)
	res.layer("live.deadline_miss_ratio", missRatio)
	res.layer("live.frame_loss_ratio", lossRatio)
	res.layer("live.gen_late_ms_max", ms(late))
	res.layer("trace.overhead_share", float64(tr.count())*float64(spanCost())/float64(lastAck.Sub(start)))
	return streamLayers(seed, st.sessions[0], tr, res)
}

// frameMatch is the outcome of matching frame rows to packets sent.
type frameMatch struct {
	sent, matched, falseFrames int
	timed                      []frameRow // matched rows that arrived with a chunk ack
}

// matchFrames pairs each frame row with the packet whose recording
// spans the row's start and whose payload it carries. Packets count as
// sent when their whole recording went out within total samples.
func matchFrames(s *liveSession, total int64, frames, flushed []frameRow) frameMatch {
	var m frameMatch
	matched := make(map[int64]bool)
	check := func(f frameRow, timed bool) {
		loop := f.Start / s.samples
		pos := f.Start % s.samples
		for _, p := range s.packets {
			if pos < p.start || pos >= p.end || !bytes.Equal(p.payload, f.Payload) {
				continue
			}
			key := loop*int64(len(s.packets)) + p.start
			if !matched[key] {
				matched[key] = true
				m.matched++
				if timed {
					m.timed = append(m.timed, f)
				}
			}
			return
		}
		m.falseFrames++
	}
	for _, f := range frames {
		check(f, true)
	}
	for _, f := range flushed {
		check(f, false)
	}
	for loop := int64(0); loop*s.samples < total; loop++ {
		for _, p := range s.packets {
			if loop*s.samples+p.end <= total {
				m.sent++
			}
		}
	}
	// A frame for a recording that was still being sent when the run
	// stopped is real but not counted as sent.
	if m.matched > m.sent {
		m.matched = m.sent
	}
	return m
}

// streamLayers measures the stream and streamd layers on one session's
// sequence: stream.Decoder.Write in process, the recording after a lost
// packet, and the same chunks through pabstream's HTTP API back to back.
func streamLayers(seed int64, s *liveSession, tr *tracer, res *result) error {
	chunks := min(inProcessChunks, int(s.samples/int64(chunkSamples)))
	writeP50, rtx, st, err := inProcessWrites(s, chunks, tr)
	if err != nil {
		return err
	}
	res.layer("stream.write_ms_p50", writeP50)
	res.layer("stream.realtime_x", rtx)
	res.layer("stream.decode_attempts", float64(st.Attempts))
	res.layer("stream.decode_yield", float64(st.Frames)/math.Max(float64(st.Attempts), 1))
	res.layer("stream.scan_hits_per_s", float64(st.ScanHits)/(float64(st.Samples)/sampleRate))
	res.layer("stream.resyncs", float64(st.Resyncs))
	clean := make([]float64, s.packets[0].end)
	for i := range clean {
		clean[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.pcm[8*i:]))
	}
	attempts, afterX, err := afterLoss(seed, clean, tr)
	if err != nil {
		return err
	}
	res.layer("stream.after_loss_attempts", float64(attempts))
	res.layer("stream.after_loss_realtime_x", afterX)
	httpP50, perSession, err := streamdBackToBack(s, chunks, tr)
	if err != nil {
		return err
	}
	res.layer("streamd.overhead_ms_p50", httpP50-writeP50)
	res.layer("streamd.bytes_per_session", perSession)
	return nil
}

// streamdBackToBack posts a session's chunks to a fresh pabstream API,
// each as soon as the previous is acked, and returns the median HTTP
// time per chunk and the live heap one open session holds.
func streamdBackToBack(s *liveSession, chunks int, tr *tracer) (p50 float64, perSession float64, err error) {
	st, err := startStreamd()
	if err != nil {
		return 0, 0, err
	}
	defer st.close()
	client, closeIdle := newClient()
	defer closeIdle()
	id, err := openStream(client, st.srv.URL)
	if err != nil {
		return 0, 0, err
	}
	url := st.srv.URL + "/v1/streams/" + id
	var buf []byte
	var times []float64
	for c := 0; c < chunks; c++ {
		buf = s.chunk(c, buf)
		sp := tr.start("http.POST /v1/streams/{id}/chunks back to back", 6_000_000+int64(c), nil)
		t0 := time.Now()
		_, _, err := postChunk(client, url+"/chunks", buf)
		times = append(times, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	open := heapInUse()
	if _, err := closeStream(client, url); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	runtime.GC() // twice: pooled decoder buffers survive one cycle
	closed := heapInUse()
	return newDist(times).p50(), float64(open) - float64(closed), nil
}

// inProcessWrites feeds one session's chunks to a stream.Decoder with
// pabstream's default config, outside HTTP, and returns the median
// per-chunk Write time, the audio seconds decoded per busy second and
// the decoder's counters.
func inProcessWrites(s *liveSession, chunks int, tr *tracer) (p50, realtimeX float64, st stream.Stats, err error) {
	dec, err := stream.NewDecoder(liveDecoderConfig())
	if err != nil {
		return 0, 0, st, err
	}
	defer dec.Close()
	samples := make([]float64, chunkSamples)
	var buf []byte
	var times []float64
	var busy time.Duration
	for c := 0; c < chunks; c++ {
		buf = s.chunk(c, buf)
		for i := range samples {
			samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		sp := tr.start("stream.Decoder.Write", 4_000_000+int64(c), nil)
		t0 := time.Now()
		if _, err := dec.Write(samples); err != nil {
			return 0, 0, st, err
		}
		d := time.Since(t0)
		sp.end()
		busy += d
		times = append(times, ms(d))
	}
	audio := float64(chunks) * chunkPeriod.Seconds()
	return newDist(times).p50(), audio / busy.Seconds(), dec.Stats(), nil
}

// afterLoss feeds a fresh decoder with pabstream's default config a
// drowned exchange (a reply no receiver can decode) and then a clean
// one, and reports the decode attempts and the real-time factor of the
// clean recording: the cost of the recording after a lost packet.
func afterLoss(seed int64, clean []float64, tr *tracer) (attempts int64, realtimeX float64, err error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 - 1))
	drowned, err := synthExchange(rng, pools[0], gridBitrate(500), drownedPa, false)
	if err != nil {
		return 0, 0, err
	}
	recv, err := core.NewReceiver(sampleRate)
	if err != nil {
		return 0, 0, err
	}
	lost, err := recv.Hydro.Record(drowned.Pressure)
	if err != nil {
		return 0, 0, err
	}
	dec, err := stream.NewDecoder(liveDecoderConfig())
	if err != nil {
		return 0, 0, err
	}
	defer dec.Close()
	feed := func(v []float64) (time.Duration, error) {
		t0 := time.Now()
		for off := 0; off < len(v); off += chunkSamples {
			if _, err := dec.Write(v[off:min(off+chunkSamples, len(v))]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := feed(lost); err != nil {
		return 0, 0, err
	}
	before := dec.Stats().Attempts
	sp := tr.start("stream.Decoder.Write after a lost packet", 5_000_000, nil)
	busy, err := feed(clean)
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	return dec.Stats().Attempts - before, float64(len(clean)) / sampleRate / busy.Seconds(), nil
}
