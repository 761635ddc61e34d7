package streamd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pab/internal/frame"
	"pab/internal/stream"
	"pab/internal/testutil"
)

// testSynthCfg is the small fast workload: 12 kHz, 3 kHz carrier,
// 375 bit/s (32 samples per bit).
func testSynthCfg() stream.SynthConfig {
	return stream.SynthConfig{
		SampleRate:  12000,
		CarrierHz:   3000,
		BitrateBps:  375,
		LeadSamples: 4000,
		TailSamples: 2000,
	}
}

func testHubCfg() Config {
	sc := testSynthCfg()
	return Config{
		Decoder: stream.Config{
			SampleRate:      sc.SampleRate,
			CarrierHz:       sc.CarrierHz,
			BitrateBps:      sc.BitrateBps,
			BlockSize:       512,
			MaxPayloadBytes: 16,
		},
		MaxStreams: 256,
		RetryAfter: 2 * time.Second,
	}
}

func testRecording(t *testing.T, payload []byte) []float64 {
	t.Helper()
	rec, err := stream.SynthesizeRecording(testSynthCfg(), frame.DataFrame{Source: 0x31, Seq: 1, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func f64leBytes(samples []float64) []byte {
	out := make([]byte, len(samples)*8)
	for i, v := range samples {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func s16leBytes(samples []float64) []byte {
	out := make([]byte, len(samples)*2)
	for i, v := range samples {
		binary.LittleEndian.PutUint16(out[i*2:], uint16(int16(v*2000)))
	}
	return out
}

// drainHub drains with a deadline and fails the test on error.
func drainHub(t *testing.T, h *Hub) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestStreamSmoke64 runs 64 concurrent HTTP streams end to end — open,
// chunked feed, close — and checks every stream decoded its frame and
// no goroutine survived the drain. This is the CI stream-smoke job's
// core test; run it with -race.
func TestStreamSmoke64(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	hub := NewHub(testHubCfg())
	srv := httptest.NewServer(NewServer(hub).Handler())
	defer srv.Close()

	const nStreams = 64
	var wg sync.WaitGroup
	errs := make(chan error, nStreams)
	frameCount := make(chan int, nStreams)
	for i := 0; i < nStreams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := runOneStream(srv.URL, fmt.Sprintf("worker-%02d", i))
			if err != nil {
				errs <- err
				return
			}
			frameCount <- n
		}(i)
	}
	wg.Wait()
	close(errs)
	close(frameCount)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for n := range frameCount {
		total += n
	}
	if total != nStreams {
		t.Fatalf("decoded %d frames across %d streams, want exactly one each", total, nStreams)
	}
	if hub.ActiveCount() != 0 {
		t.Fatalf("%d sessions still active after all closes", hub.ActiveCount())
	}
	drainHub(t, hub)
}

// runOneStream opens a stream, feeds one synthetic packet in chunks,
// closes it, and returns how many frame rows came back.
func runOneStream(base, payload string) (int, error) {
	rec, err := stream.SynthesizeRecording(testSynthCfg(), frame.DataFrame{Source: 0x31, Seq: 1, Payload: []byte(payload)})
	if err != nil {
		return 0, err
	}
	body := f64leBytes(rec)

	resp, err := http.Post(base+"/v1/streams", "application/json", strings.NewReader(`{"format":"f64le"}`))
	if err != nil {
		return 0, err
	}
	var opened struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&opened)
	resp.Body.Close()
	if err != nil || opened.ID == "" {
		return 0, fmt.Errorf("open: %v (id %q)", err, opened.ID)
	}

	frames := 0
	// Feed in chunks whose size is NOT a multiple of the 8-byte sample
	// width, so the byte-carry path is exercised.
	const chunk = 8*1024 + 3
	for off := 0; off < len(body); off += chunk {
		end := off + chunk
		if end > len(body) {
			end = len(body)
		}
		resp, err := http.Post(fmt.Sprintf("%s/v1/streams/%s/chunks", base, opened.ID),
			"application/octet-stream", bytes.NewReader(body[off:end]))
		if err != nil {
			return 0, err
		}
		n, err := countFrameRows(resp)
		if err != nil {
			return 0, err
		}
		frames += n
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/streams/%s", base, opened.ID), nil)
	if err != nil {
		return 0, err
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	n, err := countFrameRows(resp)
	if err != nil {
		return 0, err
	}
	return frames + n, nil
}

// countFrameRows reads an NDJSON response, verifying the payload of
// every frame row round-trips, and returns the frame-row count.
func countFrameRows(resp *http.Response) (int, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	frames := 0
	for sc.Scan() {
		var row struct {
			Type    string `json:"type"`
			Payload []byte `json:"payload"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return 0, fmt.Errorf("bad row %q: %v", sc.Text(), err)
		}
		if row.Error != "" {
			return 0, fmt.Errorf("error row: %s", row.Error)
		}
		if row.Type == "frame" {
			if len(row.Payload) == 0 {
				return 0, fmt.Errorf("frame row with empty payload")
			}
			frames++
		}
	}
	return frames, sc.Err()
}

// TestAdmissionLimit checks the 429 + Retry-After load-shedding
// contract at the stream cap, and that capacity frees on close.
func TestAdmissionLimit(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cfg := testHubCfg()
	cfg.MaxStreams = 2
	hub := NewHub(cfg)
	srv := httptest.NewServer(NewServer(hub).Handler())
	defer srv.Close()

	open := func() (*http.Response, string) {
		resp, err := http.Post(srv.URL+"/v1/streams", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var opened struct {
			ID string `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&opened)
		resp.Body.Close()
		return resp, opened.ID
	}
	resp1, id1 := open()
	resp2, _ := open()
	if resp1.StatusCode != http.StatusCreated || resp2.StatusCode != http.StatusCreated {
		t.Fatalf("opens under the cap: %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	resp3, _ := open()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("open past the cap: %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", ra)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/streams/"+id1, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp4, _ := open(); resp4.StatusCode != http.StatusCreated {
		t.Fatalf("open after a close: %d, want 201", resp4.StatusCode)
	}
	drainHub(t, hub)
}

// TestDrainFlushesBufferedFrames feeds a packet all the way except
// through the final decode trigger, then drains: the drain's flush
// must recover the frame from the in-flight window.
func TestDrainFlushesBufferedFrames(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	hub := NewHub(testHubCfg())
	s, err := hub.Open(FormatF64LE, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecording(t, []byte("buffered"))
	// Stop just past the packet's last sample — before the candidate's
	// full max-packet extent fits the window, so no mid-stream decode
	// has triggered, but with enough margin for the causal filter's
	// group delay to deliver the final bits.
	sc := testSynthCfg()
	cut := len(rec) - sc.TailSamples + 256
	if _, err := s.WriteSamples(rec[:cut]); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stats()
	if st.Samples != int64(cut) {
		t.Fatalf("session saw %d samples, wrote %d", st.Samples, cut)
	}
	// Drain must flush the window; the frame surfaces in the session's
	// counters even though nobody is left to read it.
	drainHub(t, hub)
	_, sessionFrames := s.Stats()
	if sessionFrames != 1 {
		t.Fatalf("drain flush recovered %d frames, want 1", sessionFrames)
	}
	if _, err := s.WriteSamples([]float64{0}); err == nil {
		t.Fatal("write after drain did not error")
	}
	if _, err := hub.Open(FormatF64LE, nil); err == nil {
		t.Fatal("open after drain did not error")
	}
}

// TestOneShotDecode round-trips a whole recording through POST
// /v1/decode in s16le, the sound-card format.
func TestOneShotDecode(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	hub := NewHub(testHubCfg())
	srv := httptest.NewServer(NewServer(hub).Handler())
	defer srv.Close()

	rec := testRecording(t, []byte("oneshot"))
	resp, err := http.Post(srv.URL+"/v1/decode?format=s16le", "application/octet-stream",
		bytes.NewReader(s16leBytes(rec)))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var payload string
	frames := 0
	for sc.Scan() {
		var row struct {
			Type    string `json:"type"`
			Payload []byte `json:"payload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		if row.Type == "frame" {
			frames++
			payload = string(row.Payload)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if frames != 1 || payload != "oneshot" {
		t.Fatalf("one-shot decoded %d frames, payload %q", frames, payload)
	}
	if hub.ActiveCount() != 0 {
		t.Fatalf("one-shot leaked a session: %d active", hub.ActiveCount())
	}
	drainHub(t, hub)
}

// TestIdleReaper checks that an abandoned session is torn down.
func TestIdleReaper(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cfg := testHubCfg()
	cfg.IdleTimeout = 50 * time.Millisecond
	hub := NewHub(cfg)
	s, err := hub.Open(FormatF64LE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteSamples(make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for hub.ActiveCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := s.WriteSamples([]float64{0}); err == nil {
		t.Fatal("write to a reaped session did not error")
	}
	drainHub(t, hub)
}

// TestInstallRechecksStreamCap opens two streams concurrently against
// a cap of one: both pass admission before either installs, so the
// cap must hold at install.
func TestInstallRechecksStreamCap(t *testing.T) {
	cfg := testHubCfg()
	cfg.MaxStreams = 1
	hub := NewHub(cfg)
	id1, err := hub.admit()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := hub.admit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.install(&Session{ID: id1, hub: hub}); err != nil {
		t.Fatalf("first install: %v", err)
	}
	if _, err := hub.install(&Session{ID: id2, hub: hub}); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("second install past the cap: err %v, want ErrTooManyStreams", err)
	}
	if n := hub.ActiveCount(); n != 1 {
		t.Fatalf("%d active sessions, cap 1", n)
	}
}

// TestOpenRejectsOversizedWindow asks for a 0.01 bit/s decoder, whose
// window would need far more memory than exists: both open paths must
// answer 400 instead of allocating it.
func TestOpenRejectsOversizedWindow(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	hub := NewHub(testHubCfg())
	srv := httptest.NewServer(NewServer(hub).Handler())
	defer srv.Close()

	body := `{"sample_rate": 96000, "bitrate_bps": 0.01, "max_payload_bytes": 64}`
	resp, err := http.Post(srv.URL+"/v1/streams", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("open at 0.01 bit/s: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/decode?rate=96000&bitrate=0.01", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("one-shot decode at 0.01 bit/s: %d, want 400", resp.StatusCode)
	}
	if n := hub.ActiveCount(); n != 0 {
		t.Fatalf("%d sessions left after refused opens", n)
	}
	drainHub(t, hub)
}

// TestChunkIngestZeroesNonFinite feeds an f64le stream with one NaN
// and one +Inf sample over HTTP: both are zeroed before the decoder,
// counted in the session's stats, and the packets after them decode.
func TestChunkIngestZeroesNonFinite(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	hub := NewHub(testHubCfg())
	srv := httptest.NewServer(NewServer(hub).Handler())
	defer srv.Close()

	one := testRecording(t, []byte("finite"))
	rec := append(append([]float64{}, one...), one...)
	rec[100] = math.NaN()
	rec[len(one)+50] = math.Inf(1)
	resp, err := http.Post(srv.URL+"/v1/streams", "application/json", strings.NewReader(`{"format":"f64le"}`))
	if err != nil {
		t.Fatal(err)
	}
	var opened struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&opened)
	resp.Body.Close()
	if err != nil || opened.ID == "" {
		t.Fatalf("open: %v (id %q)", err, opened.ID)
	}
	resp, err = http.Post(fmt.Sprintf("%s/v1/streams/%s/chunks", srv.URL, opened.ID),
		"application/octet-stream", bytes.NewReader(f64leBytes(rec)))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := countFrameRows(resp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/streams/%s", srv.URL, opened.ID))
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Stats stream.Stats `json:"stats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/streams/%s", srv.URL, opened.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	n, err := countFrameRows(resp)
	if err != nil {
		t.Fatal(err)
	}
	if frames += n; frames != 2 {
		t.Fatalf("decoded %d frames, want 2 (stats %+v)", frames, stats.Stats)
	}
	if stats.Stats.NonFinite != 2 || stats.Stats.Samples != int64(len(rec)) {
		t.Fatalf("stats %+v, want 2 non-finite of %d samples", stats.Stats, len(rec))
	}
	drainHub(t, hub)
}
