// Package rc4break's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see DESIGN.md §3 for the index), plus
// the §5.4/§6.3 throughput microbenchmarks. Benchmarks run the experiment
// drivers at laptop scale; cmd/repro exposes the same drivers with flags
// for larger runs. Custom metrics (success rates, probabilities) are
// attached with b.ReportMetric so `go test -bench` output doubles as a
// compact reproduction report.
package rc4break

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/experiments"
	"rc4break/internal/httpmodel"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/packet"
	"rc4break/internal/recovery"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
	"rc4break/internal/trace"
)

// BenchmarkTable1FluhrerMcGrew regenerates Table 1: long-term FM digraph
// probabilities via targeted counting. Reported metric: the z statistic of
// the aggregated (0,0) family versus uniform (positive = bias confirmed).
func BenchmarkTable1FluhrerMcGrew(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Table1(context.Background(), [16]byte{1}, 8, 512, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].Values[2], "z(0,0)")
	}
}

// BenchmarkFigure4ShortTermFM regenerates Figure 4: FM digraph relative
// biases in the initial keystream bytes.
func BenchmarkFigure4ShortTermFM(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.Figure4(context.Background(), 1<<16, 0, 96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2PairBiases regenerates Table 2's 22 pair-bias rows.
// Metric: the z statistic of the strongest row (Z15=Z16=240).
func BenchmarkTable2PairBiases(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Table2(context.Background(), 1<<18, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Values[2], "z(w=1)")
	}
}

// BenchmarkFigure5Z1Z2Influence regenerates Figure 5's six Z1/Z2 bias sets.
func BenchmarkFigure5Z1Z2Influence(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.Figure5(context.Background(), 1<<17, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6SingleByte regenerates Figure 6: single-byte biases
// beyond position 256 (the 256+16k key-length family).
func BenchmarkFigure6SingleByte(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.Figure6(context.Background(), 1<<15, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquality135 regenerates eqs. 3-5 (Z1=Z3, Z1=Z4, Z2=Z4).
func BenchmarkEquality135(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.Equalities(context.Background(), 1<<18, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLongTermZeroPairs regenerates eq. 8: the (0,0) and (128,0)
// biases at positions that are multiples of 256, with a control cell.
func BenchmarkLongTermZeroPairs(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.LongTermZeroPairs(context.Background(), [16]byte{2}, 8, 512, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Recovery regenerates Figure 7: two-byte recovery rates
// for ABSAB-only / FM-only / combined evidence. Metric: combined success
// at 2^33 ciphertexts (paper shape: ~1.0).
func BenchmarkFigure7Recovery(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res := experiments.Figure7(int64(n)+7, []uint64{1 << 29, 1 << 31, 1 << 33}, 8, 128)
		b.ReportMetric(res.Rows[2].Values[2], "combined@2^33")
	}
}

// BenchmarkFigure8TKIPSuccess regenerates Figure 8: TKIP MIC-key recovery
// success versus ciphertext copies. Metric: deep-list success at 9x2^20.
func BenchmarkFigure8TKIPSuccess(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Figures8and9(experiments.TKIPParams{
			Copies:   []uint64{9 << 20},
			Trials:   4,
			MaxDepth: 1 << 14,
			Seed:     int64(n) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Values[0], "success@9x2^20")
	}
}

// BenchmarkFigure9ICVPosition regenerates Figure 9: the median candidate
// position of the first correct-ICV packet. Metric: that median.
func BenchmarkFigure9ICVPosition(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Figures8and9(experiments.TKIPParams{
			Copies:   []uint64{7 << 20},
			Trials:   4,
			MaxDepth: 1 << 14,
			Seed:     int64(n) + 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Values[2], "medianICVpos")
	}
}

// BenchmarkFigure10Cookie regenerates Figure 10: cookie brute-force success
// versus ciphertexts. Metric: list success at the paper's 9x2^27 point.
func BenchmarkFigure10Cookie(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Figure10(experiments.CookieParams{
			Ciphertexts: []uint64{9 << 27},
			Trials:      4,
			Candidates:  1 << 10,
			Seed:        int64(n) + 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Values[0], "success@9x2^27")
	}
}

// BenchmarkPayloadPlacement regenerates the §5.2 ablation: per-TSC bias
// strength in the trailer window for 0-byte vs 7-byte payloads.
func BenchmarkPayloadPlacement(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.PayloadPlacement(context.Background(), 1<<8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharsetAblation regenerates the §6.2 ablation: RFC 6265
// charset restriction versus the full byte space in Algorithm 2.
func BenchmarkCharsetAblation(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.CharsetAblation(int64(n)+3, 1<<31, 2, 1<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrafficGeneration measures §6.3's request generation: sealed
// TLS records per second from the victim's persistent connection (the
// paper's live setup reached 4450 req/s over the network).
func BenchmarkTrafficGeneration(b *testing.B) {
	req, _, err := netsim.AlignedRequest("site.com", "auth", "0123456789abcdef", 64)
	if err != nil {
		b.Fatal(err)
	}
	master := make([]byte, tlsrec.MasterSecretSize)
	victim, err := netsim.NewHTTPSVictim(master, req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(victim.RecordPlaintextLen()))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		victim.SendRequest()
	}
}

// BenchmarkTKIPInjection measures §5.4's injection path: full TKIP
// encapsulations per second (the paper injected 2500 packets/s over the
// air — CPU is not the bottleneck there, as this shows).
func BenchmarkTKIPInjection(b *testing.B) {
	session := &tkip.Session{TK: [16]byte{1}, MICKey: [8]byte{2}}
	victim := netsim.NewWiFiVictim(session, []byte("PAYLOAD"))
	b.SetBytes(int64(victim.FrameLen()))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		victim.Transmit()
	}
}

// BenchmarkBruteForceRate measures §6.3's cookie-testing rate: candidate
// checks per second against the server model (the paper's pipelined tool
// tested >20000 cookies/s over the network).
func BenchmarkBruteForceRate(b *testing.B) {
	server := &netsim.CookieServer{Secret: []byte("0123456789abcdef")}
	guess := []byte("0123456789abcdeX")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		server.Check(guess)
	}
}

// BenchmarkCandidateGeneration measures Algorithm 2 throughput at cookie
// scale: one full charset-restricted list-Viterbi over a 16-byte cookie.
func BenchmarkCandidateGeneration(b *testing.B) {
	secret := []byte("0123456789abcdef")
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", string(secret), 64)
	if err != nil {
		b.Fatal(err)
	}
	attack, err := cookieattack.New(cookieattack.Config{
		CookieLen:   16,
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := attack.SimulateStatistics(rand.New(rand.NewSource(5)), secret, 1<<28); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := attack.Candidates(1 << 10); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCookieAttack builds a cookie attack loaded with 2^28 simulated
// records — the shared fixture of the likelihood/candidate benchmarks.
func benchCookieAttack(b *testing.B) *cookieattack.Attack {
	b.Helper()
	secret := []byte("0123456789abcdef")
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", string(secret), 64)
	if err != nil {
		b.Fatal(err)
	}
	attack, err := cookieattack.New(cookieattack.Config{
		CookieLen:   16,
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := attack.SimulateStatistics(rand.New(rand.NewSource(5)), secret, 1<<28); err != nil {
		b.Fatal(err)
	}
	return attack
}

// BenchmarkLikelihoodsCookie measures one cookie-attack likelihood pass:
// the 17-link FM + ABSAB combination (eq. 25) the online runtime re-runs at
// every decode point.
func BenchmarkLikelihoodsCookie(b *testing.B) {
	attack := benchCookieAttack(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := attack.Likelihoods(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLikelihoodsTKIP measures one TKIP likelihood pass: 12 trailer
// positions x 256 TSC classes of single-byte likelihoods.
func BenchmarkLikelihoodsTKIP(b *testing.B) {
	msduLen := packet.HeaderSize + 7
	positions := tkip.TrailerPositions(msduLen)
	model := tkip.SyntheticModel(positions[len(positions)-1], 1.0/768, 11)
	attack, err := tkip.NewAttack(model, positions)
	if err != nil {
		b.Fatal(err)
	}
	trailer := make([]byte, len(positions))
	for i := range trailer {
		trailer[i] = byte(17 * i)
	}
	if err := attack.SimulateCaptures(rand.New(rand.NewSource(6)), trailer, 9<<20); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := attack.Likelihoods(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoubleByteCandidates measures repeated Algorithm 2 list-Viterbi
// decodes in isolation (likelihoods precomputed) at the online demo's
// per-round depth — the decode the online runtime re-runs at every cadence
// point, so one PairDecoder is held across rounds.
func BenchmarkDoubleByteCandidates(b *testing.B) {
	attack := benchCookieAttack(b)
	lks, err := attack.Likelihoods()
	if err != nil {
		b.Fatal(err)
	}
	charset := httpmodel.CookieCharset()
	var dec recovery.PairDecoder
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := dec.Decode(lks, 'a', 'b', 1<<12, charset); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTKIPTraining measures the per-TSC model training rate that the
// §5.1 statistics generation is bound by (the paper spent 10 CPU-years on
// its 2^32-keys-per-class model).
func BenchmarkTKIPTraining(b *testing.B) {
	msduLen := packet.HeaderSize + 7
	positions := tkip.TrailerPositions(msduLen)
	for n := 0; n < b.N; n++ {
		if _, err := tkip.Train(tkip.TrainConfig{
			Positions:  positions[len(positions)-1],
			KeysPerTSC: 1 << 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastBaseline regenerates the AlFardan-style broadcast
// baseline: initial-byte recovery from per-connection ciphertexts.
// Metric: positions recovered out of 16.
func BenchmarkBroadcastBaseline(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.BroadcastAttack(context.Background(), 1<<19, 1<<19, 16, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Values[0], "positions/16")
	}
}

// BenchmarkABSABGapVerification regenerates the §4.2 gap measurement.
func BenchmarkABSABGapVerification(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.ABSABGapVerification(context.Background(), [16]byte{4}, 8, 256, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquation9Search regenerates the eq. 9 long-term equality scan.
func BenchmarkEquation9Search(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := experiments.Equation9Search(context.Background(), [16]byte{5}, 8, 256, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceIngest measures the trace-ingestion rate in MB/s of
// capture bytes for both attack pipelines: the TKIP path (pcap → radiotap
// → 802.11 → TKIP IV → sniffer-style filtering → per-TSC statistics) and
// the TLS path (pcap → Ethernet/IP/TCP → flow reassembly → TLS record
// scanning → digraph/ABSAB statistics). The capture is generated once by
// netsim's writers and re-ingested per iteration; ingest itself streams at
// O(MB) memory regardless of trace size (TestTraceIngestStreamingMemory
// pins that on a multi-hundred-MB pipe).
func BenchmarkTraceIngest(b *testing.B) {
	b.Run("tkip", func(b *testing.B) {
		model, err := tkip.Train(tkip.TrainConfig{
			Positions:  packet.HeaderSize + 7 + tkip.TrailerSize,
			KeysPerTSC: 8,
			Master:     [16]byte{0x7A},
		})
		if err != nil {
			b.Fatal(err)
		}
		session := tkip.DemoSession()
		victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
		var buf bytes.Buffer
		pw, err := trace.NewPcapWriter(&buf, trace.LinkTypeRadiotap)
		if err != nil {
			b.Fatal(err)
		}
		fw, err := netsim.NewFrameWriter(pw, trace.LinkTypeRadiotap, session)
		if err != nil {
			b.Fatal(err)
		}
		const frames = 1 << 16 // ~8 MB of capture
		if err := victim.WriteTrace(fw, frames); err != nil {
			b.Fatal(err)
		}
		capture := buf.Bytes()
		b.SetBytes(int64(len(capture)))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			a, err := tkip.NewAttack(model, tkip.TrailerPositions(packet.HeaderSize+7))
			if err != nil {
				b.Fatal(err)
			}
			stats, err := tkip.CollectTraceReaders(a, victim.FrameLen(),
				[]io.Reader{bytes.NewReader(capture)}, 0, 0, false)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Matched != frames {
				b.Fatalf("matched %d frames", stats.Matched)
			}
		}
	})
	const secret = "Secur3C00kieVal+"
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cookieattack.Config{
		CookieLen:   16,
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	}
	master := make([]byte, 48)
	rand.New(rand.NewSource(41)).Read(master)
	victim, err := netsim.NewHTTPSVictim(master, req)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	pw, err := trace.NewPcapWriter(&buf, trace.LinkTypeEthernet)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := netsim.NewStreamWriter(pw, trace.LinkTypeEthernet)
	if err != nil {
		b.Fatal(err)
	}
	const records = 1 << 14 // ~10 MB of capture
	if err := victim.WriteTrace(sw, records); err != nil {
		b.Fatal(err)
	}
	capture := buf.Bytes()
	b.Run("tls", func(b *testing.B) {
		b.SetBytes(int64(len(capture)))
		for n := 0; n < b.N; n++ {
			a, err := cookieattack.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := cookieattack.CollectTraceReaders(a, victim.RecordPlaintextLen(),
				[]io.Reader{bytes.NewReader(capture)}, 0, 0, false)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Matched != records {
				b.Fatalf("matched %d records", stats.Matched)
			}
		}
	})
	// The parse-bound ceiling of the same pipeline: everything up to and
	// including record matching, with no attack to fold into. The gap
	// between tls and tls-parse is the evidence-folding cost per capture
	// byte (see README "Trace ingestion" for the throughput model).
	b.Run("tls-parse", func(b *testing.B) {
		b.SetBytes(int64(len(capture)))
		for n := 0; n < b.N; n++ {
			stats, err := cookieattack.CollectTraceReaders(nil, victim.RecordPlaintextLen(),
				[]io.Reader{bytes.NewReader(capture)}, 0, 0, false)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Matched != records {
				b.Fatalf("matched %d records", stats.Matched)
			}
		}
	})
}

// BenchmarkCaptureExact is live exact capture end to end through the job
// runtime, the path the attack CLIs, the service and exact fleet lanes
// drive: the simulated victim seals each request (or encrypts each
// frame), the trace collector scans and filters it, and the batched fold
// takes it into the evidence. One op advances the capture by one chunk;
// obs/s is the capture rate.
func BenchmarkCaptureExact(b *testing.B) {
	run := func(b *testing.B, spec job.Spec, chunk uint64) {
		rt, err := job.New(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := rt.CaptureTo(rt.Observed() + chunk); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(chunk)*float64(b.N)/b.Elapsed().Seconds(), "obs/s")
	}
	b.Run("cookie", func(b *testing.B) {
		run(b, job.Spec{Attack: "cookie", Mode: "exact", Seed: 41, Secret: "Secur3C00kieVal+"}, 1<<12)
	})
	b.Run("tkip", func(b *testing.B) {
		model, err := job.LoadOrTrainModel("", 8, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		run(b, job.Spec{Attack: "tkip", Mode: "exact", Model: model}, 1<<14)
	})
}
