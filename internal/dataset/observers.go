package dataset

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"rc4break/internal/snapshot"
)

// Observer is a Sink that folds whole keystream prefixes: Run delivers each
// key's first KeystreamLen() bytes as one window, so Window(ks) sees one
// keystream per call. Keystream bytes are 0-indexed in the slice but
// 1-indexed in the paper's Z_r notation: ks[0] is Z1. Merge adds the counts
// of another observer of the same concrete type and shape.
type Observer interface {
	Sink
	// KeystreamLen reports how many keystream bytes Window needs.
	KeystreamLen() int
}

// SingleByteCounts estimates Pr[Zr = v] for r = 1..Positions. This is the
// dataset behind Figure 6 and the aggregation of eq. 6.
type SingleByteCounts struct {
	Positions int
	Counts    []uint64 // [pos][val], row-major, pos 0 == Z1
	Keys      uint64
}

// NewSingleByteCounts allocates counters for the first positions keystream
// bytes.
func NewSingleByteCounts(positions int) *SingleByteCounts {
	return &SingleByteCounts{
		Positions: positions,
		Counts:    make([]uint64, positions*256),
	}
}

// Window implements Sink.
func (s *SingleByteCounts) Window(ks []byte) {
	for r := 0; r < s.Positions; r++ {
		s.Counts[r*256+int(ks[r])]++
	}
	s.Keys++
}

// Merge implements Sink.
func (s *SingleByteCounts) Merge(other Sink) error {
	o, ok := other.(*SingleByteCounts)
	if !ok || o.Positions != s.Positions {
		return errors.New("dataset: incompatible SingleByteCounts merge")
	}
	for i, v := range o.Counts {
		s.Counts[i] += v
	}
	s.Keys += o.Keys
	return nil
}

// KeystreamLen implements Observer.
func (s *SingleByteCounts) KeystreamLen() int { return s.Positions }

// Count returns the observation count for Z_pos = val (pos is 1-indexed).
func (s *SingleByteCounts) Count(pos int, val byte) uint64 {
	return s.Counts[(pos-1)*256+int(val)]
}

// Position returns the 256 counts for Z_pos (1-indexed).
func (s *SingleByteCounts) Position(pos int) []uint64 {
	return s.Counts[(pos-1)*256 : pos*256]
}

// Probability estimates Pr[Z_pos = val].
func (s *SingleByteCounts) Probability(pos int, val byte) float64 {
	if s.Keys == 0 {
		return 0
	}
	return float64(s.Count(pos, val)) / float64(s.Keys)
}

// Distribution returns the estimated probability vector of Z_pos.
func (s *SingleByteCounts) Distribution(pos int) []float64 {
	out := make([]float64, 256)
	if s.Keys == 0 {
		return out
	}
	row := s.Position(pos)
	inv := 1 / float64(s.Keys)
	for v, c := range row {
		out[v] = float64(c) * inv
	}
	return out
}

// DigraphCounts estimates Pr[Zr = x ∧ Zr+1 = y] for r = 1..Positions — the
// consec512-style dataset (§3.2) behind Table 2's consecutive biases and
// Figure 4.
type DigraphCounts struct {
	Positions int
	Counts    []uint64 // [pos][x*256+y]
	Keys      uint64
}

// NewDigraphCounts allocates digraph counters for positions 1..positions
// (each needs keystream bytes r and r+1).
func NewDigraphCounts(positions int) *DigraphCounts {
	return &DigraphCounts{
		Positions: positions,
		Counts:    make([]uint64, positions*65536),
	}
}

// Window implements Sink.
func (d *DigraphCounts) Window(ks []byte) {
	for r := 0; r < d.Positions; r++ {
		d.Counts[r*65536+int(ks[r])*256+int(ks[r+1])]++
	}
	d.Keys++
}

// Merge implements Sink.
func (d *DigraphCounts) Merge(other Sink) error {
	o, ok := other.(*DigraphCounts)
	if !ok || o.Positions != d.Positions {
		return errors.New("dataset: incompatible DigraphCounts merge")
	}
	for i, v := range o.Counts {
		d.Counts[i] += v
	}
	d.Keys += o.Keys
	return nil
}

// KeystreamLen implements Observer.
func (d *DigraphCounts) KeystreamLen() int { return d.Positions + 1 }

// Count returns the count of (Z_pos, Z_pos+1) = (x, y), pos 1-indexed.
func (d *DigraphCounts) Count(pos int, x, y byte) uint64 {
	return d.Counts[(pos-1)*65536+int(x)*256+int(y)]
}

// Table returns the 65536-cell contingency table at pos (1-indexed),
// row-major in x.
func (d *DigraphCounts) Table(pos int) []uint64 {
	return d.Counts[(pos-1)*65536 : pos*65536]
}

// Probability estimates Pr[Z_pos = x ∧ Z_pos+1 = y].
func (d *DigraphCounts) Probability(pos int, x, y byte) float64 {
	if d.Keys == 0 {
		return 0
	}
	return float64(d.Count(pos, x, y)) / float64(d.Keys)
}

// Marginals returns the single-byte marginal counts of Z_pos and Z_pos+1
// implied by the digraph table — used to compute the paper's relative bias
// q against the single-byte-expected probability (§3.1).
func (d *DigraphCounts) Marginals(pos int) (first, second [256]uint64) {
	t := d.Table(pos)
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			c := t[x*256+y]
			first[x] += c
			second[y] += c
		}
	}
	return first, second
}

// PairCell identifies one targeted cell Pr[Za = X ∧ Zb = Y] (a, b
// 1-indexed, a < b). Targeted counting is how we afford first16-style
// statistics: instead of the paper's full 16×256×65536 joint (2^44 keys,
// 9 CPU-years), we count exactly the cells a figure or table needs.
type PairCell struct {
	A, B int
	X, Y byte
}

// TargetedPairs counts a fixed set of pair cells.
type TargetedPairs struct {
	Cells  []PairCell
	Counts []uint64
	Keys   uint64
	maxPos int
}

// NewTargetedPairs allocates counters for the given cells.
func NewTargetedPairs(cells []PairCell) (*TargetedPairs, error) {
	maxPos := 0
	for _, c := range cells {
		if c.A < 1 || c.B <= c.A {
			return nil, fmt.Errorf("dataset: bad pair cell a=%d b=%d (need 1 <= a < b)", c.A, c.B)
		}
		if c.B > maxPos {
			maxPos = c.B
		}
	}
	return &TargetedPairs{
		Cells:  append([]PairCell(nil), cells...),
		Counts: make([]uint64, len(cells)),
		maxPos: maxPos,
	}, nil
}

// Window implements Sink.
func (t *TargetedPairs) Window(ks []byte) {
	for i, c := range t.Cells {
		if ks[c.A-1] == c.X && ks[c.B-1] == c.Y {
			t.Counts[i]++
		}
	}
	t.Keys++
}

// Merge implements Sink.
func (t *TargetedPairs) Merge(other Sink) error {
	o, ok := other.(*TargetedPairs)
	if !ok || len(o.Cells) != len(t.Cells) {
		return errors.New("dataset: incompatible TargetedPairs merge")
	}
	for i, v := range o.Counts {
		t.Counts[i] += v
	}
	t.Keys += o.Keys
	return nil
}

// KeystreamLen implements Observer.
func (t *TargetedPairs) KeystreamLen() int { return t.maxPos }

// Probability estimates Pr[cell i].
func (t *TargetedPairs) Probability(i int) float64 {
	if t.Keys == 0 {
		return 0
	}
	return float64(t.Counts[i]) / float64(t.Keys)
}

// EqualityCounts estimates Pr[Za = Zb] for a fixed list of position pairs —
// the shape of eqs. 3–5 (Z1=Z3, Z1=Z4, Z2=Z4) and the Pr[Zr = Zr+1] family.
type EqualityCounts struct {
	PairsA, PairsB []int // 1-indexed positions
	Counts         []uint64
	Keys           uint64
	maxPos         int
}

// NewEqualityCounts allocates equality counters. as[i] and bs[i] are the
// 1-indexed positions compared.
func NewEqualityCounts(as, bs []int) (*EqualityCounts, error) {
	if len(as) != len(bs) {
		return nil, errors.New("dataset: position list length mismatch")
	}
	maxPos := 0
	for i := range as {
		if as[i] < 1 || bs[i] < 1 || as[i] == bs[i] {
			return nil, fmt.Errorf("dataset: bad equality pair (%d,%d)", as[i], bs[i])
		}
		if as[i] > maxPos {
			maxPos = as[i]
		}
		if bs[i] > maxPos {
			maxPos = bs[i]
		}
	}
	return &EqualityCounts{
		PairsA: append([]int(nil), as...),
		PairsB: append([]int(nil), bs...),
		Counts: make([]uint64, len(as)),
		maxPos: maxPos,
	}, nil
}

// Window implements Sink.
func (e *EqualityCounts) Window(ks []byte) {
	for i := range e.PairsA {
		if ks[e.PairsA[i]-1] == ks[e.PairsB[i]-1] {
			e.Counts[i]++
		}
	}
	e.Keys++
}

// Merge implements Sink.
func (e *EqualityCounts) Merge(other Sink) error {
	o, ok := other.(*EqualityCounts)
	if !ok || len(o.Counts) != len(e.Counts) {
		return errors.New("dataset: incompatible EqualityCounts merge")
	}
	for i, v := range o.Counts {
		e.Counts[i] += v
	}
	e.Keys += o.Keys
	return nil
}

// KeystreamLen implements Observer.
func (e *EqualityCounts) KeystreamLen() int { return e.maxPos }

// Probability estimates Pr[Za = Zb] for pair i.
func (e *EqualityCounts) Probability(i int) float64 {
	if e.Keys == 0 {
		return 0
	}
	return float64(e.Counts[i]) / float64(e.Keys)
}

// Multi fans one keystream out to several observers.
type Multi struct {
	Observers []Observer
}

// Window implements Sink.
func (m *Multi) Window(ks []byte) {
	for _, o := range m.Observers {
		o.Window(ks)
	}
}

// Merge implements Sink.
func (m *Multi) Merge(other Sink) error {
	o, ok := other.(*Multi)
	if !ok || len(o.Observers) != len(m.Observers) {
		return errors.New("dataset: incompatible Multi merge")
	}
	for i := range m.Observers {
		if err := m.Observers[i].Merge(o.Observers[i]); err != nil {
			return err
		}
	}
	return nil
}

// KeystreamLen implements Observer.
func (m *Multi) KeystreamLen() int {
	max := 0
	for _, o := range m.Observers {
		if l := o.KeystreamLen(); l > max {
			max = l
		}
	}
	return max
}

// ObserverSnapshotKind tags persisted observer datasets inside the shared
// snapshot envelope.
const ObserverSnapshotKind = "rc4break.dataset.observer.v1"

// Save serializes an observer's concrete value inside the shared snapshot
// envelope: magic marker, format version, kind, gob payload, and a CRC-64
// trailer. A file from a future incompatible layout therefore fails with an
// explicit version message instead of an opaque gob decode error, and
// truncation or bit flips are caught before the decoder runs. The
// cmd/biasgen tool uses this to persist datasets for later analysis by
// cmd/biastest.
func Save(w io.Writer, obs Observer) error {
	payload, err := encodeObserverPayload(obs, nil)
	if err != nil {
		return err
	}
	return snapshot.Write(w, ObserverSnapshotKind, payload)
}

// SaveFile atomically persists an observer at path (temp file + rename), so
// an interrupted checkpoint never tears an existing dataset.
func SaveFile(path string, obs Observer) error {
	payload, err := encodeObserverPayload(obs, nil)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, ObserverSnapshotKind, payload)
}

// SaveFileMeta is SaveFile with a generation-parameter record appended to
// the payload. Checkpointed generation (cmd/biasgen) stores its seed, lane
// base, and chunking there so a resume under different flags is rejected
// instead of silently mixing incompatible key populations. Files written
// with meta stay readable by Load — the trailing record is simply not
// consumed.
func SaveFileMeta(path string, obs Observer, meta map[string]uint64) error {
	payload, err := encodeObserverPayload(obs, meta)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, ObserverSnapshotKind, payload)
}

// encodeObserverPayload accepts the two kinds cmd/biasgen writes. Other
// observers keep their keystream length in an unexported field
// (TargetedPairs, EqualityCounts) that a gob round trip would silently
// lose.
func encodeObserverPayload(obs Observer, meta map[string]uint64) ([]byte, error) {
	var name string
	switch obs.(type) {
	case *SingleByteCounts:
		name = "single"
	case *DigraphCounts:
		name = "digraph"
	default:
		return nil, fmt.Errorf("dataset: cannot save observer type %T", obs)
	}
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	if err := enc.Encode(name); err != nil {
		return nil, err
	}
	if err := enc.Encode(obs); err != nil {
		return nil, err
	}
	if meta != nil {
		// Gob encodes maps in random iteration order, which would make two
		// identical checkpoints differ byte for byte; a sorted pair list
		// keeps serialization deterministic.
		pairs := make([]metaPair, 0, len(meta))
		for k, v := range meta {
			pairs = append(pairs, metaPair{K: k, V: v})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].K < pairs[j].K })
		if err := enc.Encode(pairs); err != nil {
			return nil, err
		}
	}
	return payload.Bytes(), nil
}

// metaPair is the deterministic wire form of one generation parameter.
type metaPair struct {
	K string
	V uint64
}

// Load deserializes an observer written by Save. The envelope is
// checksum-verified and version-checked; a bare gob stream, as written
// before the envelope existed, fails with snapshot.ErrNotSnapshot.
func Load(r io.Reader) (Observer, error) {
	obs, _, err := loadWithMeta(r)
	return obs, err
}

// LoadFileMeta loads an observer dataset plus the generation-parameter
// record written by SaveFileMeta. meta is nil when the file carries none
// (plain Save/SaveFile output).
func LoadFileMeta(path string) (Observer, map[string]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return loadWithMeta(f)
}

// loadWithMeta is the single read path behind Load and LoadFileMeta: verify
// the envelope and its kind, then decode the observer and the optional
// trailing parameter record.
func loadWithMeta(r io.Reader) (Observer, map[string]uint64, error) {
	kind, payload, err := snapshot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	if kind != ObserverSnapshotKind {
		return nil, nil, fmt.Errorf("dataset: file holds %q, not an observer dataset", kind)
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	obs, err := decodeObserver(dec)
	if err != nil {
		return nil, nil, err
	}
	var pairs []metaPair
	if err := dec.Decode(&pairs); err != nil {
		return obs, nil, nil // absent: not an error
	}
	meta := make(map[string]uint64, len(pairs))
	for _, p := range pairs {
		meta[p.K] = p.V
	}
	return obs, meta, nil
}

// decodeObserver decodes one observer and refuses a shape its accessors
// would index out of range.
func decodeObserver(dec *gob.Decoder) (Observer, error) {
	var name string
	if err := dec.Decode(&name); err != nil {
		return nil, err
	}
	var obs Observer
	switch name {
	case "single":
		obs = &SingleByteCounts{}
	case "digraph":
		obs = &DigraphCounts{}
	default:
		return nil, fmt.Errorf("dataset: unknown observer type %q", name)
	}
	if err := dec.Decode(obs); err != nil {
		return nil, err
	}
	var positions, counts, cells int
	switch o := obs.(type) {
	case *SingleByteCounts:
		positions, counts, cells = o.Positions, len(o.Counts), 256
	case *DigraphCounts:
		positions, counts, cells = o.Positions, len(o.Counts), 65536
	}
	// By division: a crafted Positions must not overflow Positions·cells.
	if positions <= 0 || counts%cells != 0 || counts/cells != positions {
		return nil, fmt.Errorf("dataset: corrupt %s observer (%d positions, %d counts)", name, positions, counts)
	}
	return obs, nil
}

// KeysObserved reports how many keystreams an observer has folded in — the
// resume logic of chunked generation reads it to find where a checkpoint
// left off.
func KeysObserved(obs Observer) uint64 {
	switch o := obs.(type) {
	case *SingleByteCounts:
		return o.Keys
	case *DigraphCounts:
		return o.Keys
	}
	return 0
}
