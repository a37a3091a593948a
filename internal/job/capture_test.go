package job

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/netsim"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// scalarRef is an independent exact-capture reference: the simulated
// victim's stream through the standalone filter (the §6.3 TLS scanner or
// the §5.4 sniffer) into the attack one observation at a time.
type scalarRef struct {
	observed func() uint64
	step     func() // captures one more victim record or frame
	write    func() []byte
}

// to advances the reference to n observations and returns its evidence.
func (r *scalarRef) to(n uint64) []byte {
	for r.observed() < n {
		r.step()
	}
	return r.write()
}

func snapshotBytes(t *testing.T, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cookieRef replays seed's HTTPS victim from its first record, discards
// the first skip matched records and folds the rest through ObserveRecord.
func cookieRef(t *testing.T, seed int64, skip uint64, stream snapshot.StreamInfo) *scalarRef {
	t.Helper()
	cfg, req, err := CookieLayout(testSecret)
	if err != nil {
		t.Fatal(err)
	}
	attack, err := cookieattack.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attack.Stream = stream
	victim, err := HTTPSVictim(seed, req)
	if err != nil {
		t.Fatal(err)
	}
	col := &tlsrec.CollectRequests{WantLen: victim.RecordPlaintextLen()}
	observe := func(body []byte) {
		if col.Matched <= skip {
			return
		}
		if err := attack.ObserveRecord(body); err != nil {
			t.Fatal(err)
		}
	}
	return &scalarRef{
		observed: func() uint64 { return attack.Records },
		step: func() {
			if err := col.Feed(victim.SendRequest(), observe); err != nil {
				t.Fatal(err)
			}
		},
		write: func() []byte {
			return snapshotBytes(t, func(b *bytes.Buffer) error { return attack.WriteSnapshot(b) })
		},
	}
}

// tkipRef replays the demo victim's frames from TSC 0, discards the first
// skip sniffed frames and folds the rest through Observe.
func tkipRef(t *testing.T, model *tkip.PerTSCModel, skip uint64, stream snapshot.StreamInfo) *scalarRef {
	t.Helper()
	victim := netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload)
	attack, err := tkip.NewAttack(model, tkip.TrailerPositions(len(victim.MSDU)))
	if err != nil {
		t.Fatal(err)
	}
	attack.Stream = stream
	sniffer := netsim.NewSniffer(victim.FrameLen())
	return &scalarRef{
		observed: func() uint64 { return attack.Frames },
		step: func() {
			if f := victim.Transmit(); sniffer.Filter(f) && sniffer.Captured > skip {
				attack.Observe(f)
			}
		},
		write: func() []byte {
			return snapshotBytes(t, func(b *bytes.Buffer) error { return attack.WriteSnapshot(b) })
		},
	}
}

// TestExactCaptureMatchesScalarReference pins job's exact capture to the
// scalar reference byte for byte: across CaptureTo splits on both sides of
// the fold batch, after a resume at an unaligned count, for fleet lanes
// cut out of the stream, and (TKIP) past the collector's dedup window.
func TestExactCaptureMatchesScalarReference(t *testing.T) {
	model, err := LoadOrTrainModel("", 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	type attackCase struct {
		name    string
		spec    Spec
		stream  snapshot.StreamInfo
		ref     func(skip uint64, stream snapshot.StreamInfo) *scalarRef
		targets []uint64
		resume  uint64
		lane    fleet.Lease
	}
	cookieSpec := Spec{Attack: "cookie", Mode: "exact", Seed: 7, Secret: testSecret}
	tkipSpec := Spec{Attack: "tkip", Mode: "exact", Model: model}
	cases := []attackCase{
		{
			name:    "cookie",
			spec:    cookieSpec,
			stream:  snapshot.StreamInfo{Mode: "exact", Seed: 7},
			ref:     func(skip uint64, s snapshot.StreamInfo) *scalarRef { return cookieRef(t, 7, skip, s) },
			targets: []uint64{1, 2047, 2049, 4101},
			resume:  3001,
			lane:    fleet.Lease{Lane: 1, Start: 2050, Records: 2051},
		},
		{
			name:    "tkip",
			spec:    tkipSpec,
			stream:  snapshot.StreamInfo{Mode: "exact"},
			ref:     func(skip uint64, s snapshot.StreamInfo) *scalarRef { return tkipRef(t, model, skip, s) },
			targets: []uint64{1, 255, 257, 1<<16 + 300},
			resume:  1<<16 - 3,
			lane:    fleet.Lease{Lane: 1, Start: 1<<16 - 100, Records: 400},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := c.ref(0, c.stream)
			rt, err := New(c.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			var resumeAt []byte
			for _, target := range c.targets {
				if target > c.resume && resumeAt == nil {
					if err := rt.CaptureTo(c.resume); err != nil {
						t.Fatal(err)
					}
					if resumeAt, err = rt.Evidence(); err != nil {
						t.Fatal(err)
					}
				}
				if err := rt.CaptureTo(target); err != nil {
					t.Fatal(err)
				}
				got, err := rt.Evidence()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref.to(target)) {
					t.Fatalf("CaptureTo(%d) evidence differs from the scalar reference", target)
				}
			}

			last := c.targets[len(c.targets)-1]
			resumed, err := New(c.spec, resumeAt)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Observed() != c.resume {
				t.Fatalf("resumed at %d observations, want %d", resumed.Observed(), c.resume)
			}
			if err := resumed.CaptureTo(last); err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Evidence()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref.to(last)) {
				t.Fatalf("resume at %d then CaptureTo(%d) differs from the scalar reference", c.resume, last)
			}

			fj := fleet.JobSpec{Attack: c.spec.Attack, Mode: "exact", Seed: c.spec.Seed}
			lease := c.lane
			lease.Stream = fj.LaneStream(lease.Lane)
			got, err = c.spec.CollectLane(fj, lease)
			if err != nil {
				t.Fatal(err)
			}
			want := c.ref(lease.Start, lease.Stream).to(lease.Records)
			if !bytes.Equal(got, want) {
				t.Fatalf("exact lane [%d, +%d) differs from the scalar reference", lease.Start, lease.Records)
			}
		})
	}
}

// TestCheckpointedMatchesCaptureTo pins the CLIs' granule writes: with the
// capture chunk below, at and above the target, CaptureTo's granules end at
// the multiples of the chunk and then at the target; in exact mode the
// checkpoint file after each granule short of the target holds the
// evidence of capturing to that end, and model mode writes none. In model
// mode each granule is one draw: a chunkless runtime called at the same
// ends folds the same bytes.
func TestCheckpointedMatchesCaptureTo(t *testing.T) {
	const target = 9000
	for _, mode := range []string{"exact", "model"} {
		for _, chunk := range []uint64{1000, 4096, 1 << 20} {
			spec := Spec{Attack: "cookie", Mode: mode, Seed: 3, Secret: testSecret}
			ref, err := New(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			spec.CaptureChunk = chunk
			rt, err := New(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.snap")
			cli{checkpoint: path}.bind(context.Background(), rt)
			save := rt.EachGranule
			if save == nil {
				save = func(_ uint64, _ bool, capture func() error) error { return capture() }
			}
			var ends []uint64
			rt.EachGranule = func(end uint64, last bool, capture func() error) error {
				ends = append(ends, end)
				if err := save(end, last, capture); err != nil {
					return err
				}
				if err := ref.CaptureTo(end); err != nil {
					return err
				}
				got, err := os.ReadFile(path)
				switch {
				case last:
					// The caller writes the granule that reaches the target.
				case mode == "model":
					if !os.IsNotExist(err) {
						t.Errorf("model chunk %d: checkpoint written at %d (err %v)", chunk, end, err)
					}
				default:
					want, werr := ref.Evidence()
					if werr != nil || err != nil || !bytes.Equal(got, want) {
						t.Errorf("exact chunk %d: checkpoint at %d differs from capturing to it (err %v, %v)", chunk, end, err, werr)
					}
				}
				return nil
			}
			if err := rt.CaptureTo(target); err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for end := chunk; end < target; end += chunk {
				want = append(want, end)
			}
			if want = append(want, target); !slices.Equal(ends, want) {
				t.Fatalf("%s chunk %d: granules end at %v, want %v", mode, chunk, ends, want)
			}
			got, err := rt.Evidence()
			if err != nil {
				t.Fatal(err)
			}
			if wantEv, err := ref.Evidence(); err != nil || !bytes.Equal(got, wantEv) {
				t.Fatalf("%s chunk %d: granular capture differs from the chunkless one (err %v)", mode, chunk, err)
			}
		}
	}
}

// TestExactTKIPGranulesMatchOneCall pins batched exact TKIP capture across
// granule ends that fall inside rc4.MultiLanes lane groups and inside
// netsim.BatchFrames batches: 1000-frame granules on two workers fold the
// same evidence bytes as one CaptureTo on one worker.
func TestExactTKIPGranulesMatchOneCall(t *testing.T) {
	const target = 2*netsim.BatchFrames + 809
	model, err := LoadOrTrainModel("", 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	capture := func(chunk uint64, workers int) []byte {
		rt, err := New(Spec{Attack: "tkip", Mode: "exact", Model: model, CaptureChunk: chunk, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.CaptureTo(target); err != nil {
			t.Fatal(err)
		}
		ev, err := rt.Evidence()
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	if !bytes.Equal(capture(1000, 2), capture(0, 1)) {
		t.Fatal("1000-frame granules fold different evidence than one CaptureTo")
	}
}
