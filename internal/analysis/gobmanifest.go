package analysis

// GobManifest registers every concrete type the repository passes into a
// snapshot envelope (snapshot.WriteGob / WriteFileGob / EncodeGob, and the
// column headers of snapshot.WriteColumns), mapping
// its fully qualified name to the SchemaOf fingerprint of its gob wire
// schema. The rc4gob pass recomputes each payload's fingerprint on every run
// and fails the build when a call site uses an unregistered type or when a
// registered type's schema has drifted.
//
// Updating an entry is a statement that you have thought about the persisted
// artifacts: either the change is gob-compatible (added fields, reordered
// fields) and old snapshots still decode, or it is not and the envelope kind
// string must be versioned alongside it. The diagnostic prints the exact
// entry to paste here.
//
// Fingerprint semantics (see SchemaOf): exported fields only, sorted by
// name, pointers flattened, GobEncode/MarshalBinary types rendered opaque as
// custom(...). Field *order* changes therefore do not show up as drift —
// matching gob, which resolves fields by name.
var GobManifest = map[string]string{
	// Persisted attack evidence snapshots (the -checkpoint/-merge artifacts).
	// Both attacks moved from gob-encoded tables (attackState, kind .v1) to
	// column payloads (kind .v2): these gob headers, then the tables as raw
	// little-endian columns. v1 snapshots are refused with
	// snapshot.ErrOldLayout, not decoded.
	"rc4break/internal/cookieattack.attackHeader": "struct{Config struct{Charset []byte; CookieLen int; CounterBase int; MaxGap int; Offset int; Plaintext []byte}; Fingerprint [16]byte; Records uint64; Stream struct{Lane uint64; Mode string; Seed int64}; Width int}",
	"rc4break/internal/tkip.modelState":           "struct{Counts []uint64; Keys uint64; Positions int; TSC1 byte}",
	"rc4break/internal/tkip.attackHeader":         "struct{Frames uint64; ModelFingerprint [16]byte; Positions []int; Stream struct{Lane uint64; Mode string; Seed int64}; Width int}",

	// Attack-service job manifests (the attackd store's jobs/<id> records).
	// Spec gained TraceID (span-context propagation from the submitter) —
	// gob-compatible: old manifests decode with an empty TraceID. Model (the
	// key of a TKIP model blob nothing read) was dropped — also compatible:
	// gob skips the field when decoding an old manifest. Spec is now
	// job.Spec (service.JobSpec is an alias), which adds the runtime inputs
	// Model and Traces; no field was renamed or retyped, so manifests
	// written before it decode unchanged (TestManifestFromBeforeJobSpec
	// resumes one). attackd's JSON cannot set either input, so its
	// manifests carry their zero values.
	"rc4break/internal/service.Manifest": "struct{Evidence string; ID string; Observed uint64; Result struct{Checks uint64; Error string; Plaintext []byte; Rank int; Skipped uint64; Success bool}; Rounds int; Spec struct{Attack string; Budget uint64; CaptureChunk uint64; CheckpointRounds int; DecodeEvery uint64; FirstDecode uint64; MaxCandidates int; Mode string; Model struct{Counts []uint64; Keys uint64; Positions int; TSC1 byte}; Secret string; Seed int64; TraceID string; Traces string; TrainKeys uint64; Workers int}; State string; Tenant string}",

	// Fleet RPC messages (coordinator/worker wire protocol).
	"rc4break/internal/fleet.Hello":        "struct{Fingerprint [16]byte; Worker string}",
	"rc4break/internal/fleet.Welcome":      "struct{Job struct{Attack string; Budget uint64; Fingerprint [16]byte; LaneRecords uint64; Mode string; Seed int64}}",
	"rc4break/internal/fleet.LeaseRequest": "struct{Worker string}",
	// Lease gained Trace/Span (span-context propagation) and Evidence gained
	// Spans (worker journal piggyback) — both gob-compatible additions: old
	// peers decode new messages by skipping unknown fields, new peers see
	// zero values (tracing off) from old peers. Evidence lost Snapshot: the
	// lane's snapshot envelope is now a second frame after it, and the kind
	// moved to evidence.v2, so a v1 peer's upload is refused as an unknown
	// kind instead of being misread.
	"rc4break/internal/fleet.Lease":    "struct{Lane uint64; Records uint64; Span uint64; Start uint64; Stream struct{Lane uint64; Mode string; Seed int64}; TTL int64; Trace uint64}",
	"rc4break/internal/fleet.Wait":     "struct{After int64}",
	"rc4break/internal/fleet.Stop":     "struct{Reason string}",
	"rc4break/internal/fleet.Release":  "struct{Lane uint64; Worker string}",
	"rc4break/internal/fleet.Evidence": "struct{Lane uint64; Records uint64; Spans []struct{Attrs []struct{Key string; Kind uint8; Num uint64; Str string}; Dur int64; Name string; Parent uint64; Proc string; Span uint64; Start int64; Trace uint64; Track int64}; Stream struct{Lane uint64; Mode string; Seed int64}; Worker string}",
	"rc4break/internal/fleet.Ack":      "struct{Err string; Lane uint64; Merged uint64; OK bool; Stop bool}",
}
