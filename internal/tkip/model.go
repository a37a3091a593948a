package tkip

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"sync"

	"rc4break/internal/dataset"
	"rc4break/internal/snapshot"
)

// PerTSCModel holds empirical keystream distributions conditioned on the
// TSC class — the §5.1 statistics behind the Paterson-style single-byte
// likelihood attack. The paper trained 2^32 keys per (TSC0, TSC1) pair over
// 128 positions (10 CPU-years); at laptop scale we condition on TSC0 with
// TSC1 fixed, which captures the K2 = TSC0 structure of the per-packet key,
// and make the keys-per-class count a knob.
type PerTSCModel struct {
	Positions int      // keystream positions covered (1..Positions)
	TSC1      byte     // the fixed TSC1 of this model
	Counts    []uint64 // [class=TSC0][pos][val]
	Keys      uint64   // keys per class

	// fingerprint caching (models are immutable once trained/loaded).
	fpOnce sync.Once
	fp     [16]byte
	fpErr  error
}

// TrainConfig controls per-TSC model training.
type TrainConfig struct {
	Positions  int    // keystream positions to cover
	KeysPerTSC uint64 // keys per TSC0 class
	TSC1       byte   // fixed TSC1 value
	Workers    int
	Master     [16]byte
	// Ctx, when non-nil, cancels training early; pair with
	// dataset.WithProgress to observe paper-scale runs. nil means
	// context.Background().
	Ctx context.Context
}

// trainLaneOffset keeps the training lane space (one KeySource lane per TSC0
// class) disjoint from the dataset package's lanes. Lanes are a fixed
// function of the class, so training is deterministic for a fixed master —
// the pre-engine worker pool seeded lanes by which goroutine happened to
// grab a class, making every training run irreproducible.
const trainLaneOffset uint64 = 1 << 32

// classSink counts keystream-byte occurrences for one TSC0 class, writing
// directly into that class's disjoint region of the shared model. Merging is
// therefore a no-op.
type classSink struct {
	counts    []uint64 // the class's [pos][val] region
	positions int
}

func (cs classSink) Window(win []byte) {
	for r := 0; r < cs.positions; r++ {
		cs.counts[r*256+int(win[r])]++
	}
}

func (cs classSink) Merge(other dataset.Sink) error {
	if _, ok := other.(classSink); !ok {
		return errors.New("tkip: incompatible training sink merge")
	}
	return nil
}

// Train estimates per-TSC keystream distributions by generating, for every
// TSC0 class, KeysPerTSC random keys with the mandated K0..K2 structure.
// Each class is one engine shard, keys 0..KeysPerTSC-1 of its own KeySource
// lane, so the model is deterministic for a fixed master.
func Train(cfg TrainConfig) (*PerTSCModel, error) {
	if cfg.Positions <= 0 || cfg.KeysPerTSC == 0 {
		return nil, errors.New("tkip: positions and keys per TSC must be positive")
	}
	m := &PerTSCModel{
		Positions: cfg.Positions,
		TSC1:      cfg.TSC1,
		Counts:    make([]uint64, 256*cfg.Positions*256),
		Keys:      cfg.KeysPerTSC,
	}
	k0 := cfg.TSC1
	k1 := (cfg.TSC1 | 0x20) & 0x7f

	shards := make([]dataset.Shard, 256)
	for class := range shards {
		shards[class] = dataset.Shard{Lane: trainLaneOffset + uint64(class), Keys: cfg.KeysPerTSC}
	}
	perClass := cfg.Positions * 256
	_, err := dataset.Engine{Workers: cfg.Workers}.Run(cfg.Ctx, dataset.Stream{
		Master:   cfg.Master,
		BlockLen: cfg.Positions,
		KeyDeriver: func(lane uint64, key []byte) {
			key[0], key[1], key[2] = k0, k1, byte(lane-trainLaneOffset)
		},
	}, shards, func(class int) dataset.Sink {
		return classSink{counts: m.Counts[class*perClass : (class+1)*perClass], positions: cfg.Positions}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Distribution returns the add-one-smoothed probability vector of keystream
// position pos (1-indexed) in class tsc0. Smoothing keeps log-likelihoods
// finite when a cell was never observed at small training sizes.
func (m *PerTSCModel) Distribution(tsc0 byte, pos int) []float64 {
	base := int(tsc0)*m.Positions*256 + (pos-1)*256
	out := make([]float64, 256)
	den := float64(m.Keys + 256)
	for v := 0; v < 256; v++ {
		out[v] = (float64(m.Counts[base+v]) + 1) / den
	}
	return out
}

// Count returns the raw training count for (tsc0, pos, val).
func (m *PerTSCModel) Count(tsc0 byte, pos int, val byte) uint64 {
	return m.Counts[int(tsc0)*m.Positions*256+(pos-1)*256+int(val)]
}

// ModelSnapshotKind tags trained per-TSC models inside the shared snapshot
// envelope.
const ModelSnapshotKind = "rc4break.tkip.model.v1"

// modelState is the gob payload of a model snapshot — the exported model
// fields without the runtime-only fingerprint cache.
type modelState struct {
	Positions int
	TSC1      byte
	Counts    []uint64
	Keys      uint64
}

// Fingerprint identifies the trained model. Attack snapshots embed it so a
// capture resumed or merged against a different model is rejected instead of
// silently mixing likelihood spaces. The digest is computed once and cached;
// models are immutable after training or loading.
func (m *PerTSCModel) Fingerprint() ([16]byte, error) {
	m.fpOnce.Do(func() {
		m.fp, m.fpErr = snapshot.Fingerprint(modelState{
			Positions: m.Positions, TSC1: m.TSC1, Counts: m.Counts, Keys: m.Keys,
		})
	})
	return m.fp, m.fpErr
}

// Save persists the model as a checksummed snapshot envelope. Training is
// the expensive step of the §5 attack (the paper spent 10 CPU-years on its
// model), so a real tool trains once and reloads.
func (m *PerTSCModel) Save(w io.Writer) error {
	return snapshot.WriteGob(w, ModelSnapshotKind, modelState{
		Positions: m.Positions, TSC1: m.TSC1, Counts: m.Counts, Keys: m.Keys,
	})
}

// SaveFile atomically persists the model at path (temp file + rename): a
// crash mid-write must never leave a torn file where the expensive training
// artifact used to be.
func (m *PerTSCModel) SaveFile(path string) error {
	return snapshot.WriteFileGob(path, ModelSnapshotKind, modelState{
		Positions: m.Positions, TSC1: m.TSC1, Counts: m.Counts, Keys: m.Keys,
	})
}

// LoadModelFile loads a model from path.
func LoadModelFile(path string) (*PerTSCModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}

// LoadModel reads a model written by Save and validates its shape. Only the
// snapshot envelope loads: a bare gob stream, as written before the
// envelope existed, fails with snapshot.ErrNotSnapshot.
func LoadModel(r io.Reader) (*PerTSCModel, error) {
	var st modelState
	if err := snapshot.ReadGob(r, ModelSnapshotKind, &st); err != nil {
		return nil, err
	}
	// The shape is checked by division: the product 256·Positions·256
	// wraps for a crafted Positions such as 1<<48 and would match an empty
	// Counts.
	if st.Positions <= 0 || len(st.Counts)%65536 != 0 || len(st.Counts)/65536 != st.Positions {
		return nil, errors.New("tkip: corrupt model (shape mismatch)")
	}
	if st.Keys == 0 {
		return nil, errors.New("tkip: corrupt model (zero key count)")
	}
	return &PerTSCModel{Positions: st.Positions, TSC1: st.TSC1, Counts: st.Counts, Keys: st.Keys}, nil
}

// SyntheticModel builds a per-TSC model whose class distributions deviate
// from uniform by Gaussian relative biases of the given RMS strength. The
// paper's Fig. 8 simulation runs against empirical distributions trained
// with 2^32 keys per class (negligible estimation noise, real bias
// magnitudes); reproducing that regime by training is CPU-years, so the
// figure drivers instead use a synthetic model with the bias strength
// calibrated to land the success curve in the paper's 2^20–2^24 window.
// See README "Paper fidelity". strength is the RMS relative
// per-cell deviation (the TKIP per-TSC biases at the trailer positions are
// of order 2^-9..2^-11).
func SyntheticModel(positions int, strength float64, seed int64) *PerTSCModel {
	const scale = 1 << 30 // counts are quantized at this resolution
	rng := rand.New(rand.NewSource(seed))
	m := &PerTSCModel{
		Positions: positions,
		Counts:    make([]uint64, 256*positions*256),
		Keys:      scale,
	}
	for class := 0; class < 256; class++ {
		base := class * positions * 256
		for pos := 0; pos < positions; pos++ {
			row := m.Counts[base+pos*256 : base+pos*256+256]
			var total float64
			weights := make([]float64, 256)
			for v := 0; v < 256; v++ {
				w := 1 + strength*rng.NormFloat64()
				if w < 0.1 {
					w = 0.1
				}
				weights[v] = w
				total += w
			}
			for v := 0; v < 256; v++ {
				row[v] = uint64(weights[v] / total * scale)
			}
		}
	}
	return m
}
