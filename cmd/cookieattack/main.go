// Command cookieattack runs the full §6 HTTPS cookie attack end to end in
// the in-process simulator: craft the aligned request, make the victim's
// browser issue many requests over one persistent RC4 TLS connection,
// collect ciphertext statistics (Fluhrer–McGrew digraphs plus ABSAB
// differentials against the injected known plaintext), generate the cookie
// candidate list with the charset-restricted list-Viterbi, and brute-force
// it against the server.
//
// Collection is interruptible and distributable, the way the paper's
// multi-hour captures (§6.3: 52 hours for 9·2^27 requests) have to run in
// practice. Capture walks the job's granules (-capture-chunk records, as
// attackd does); exact mode rewrites -checkpoint at every granule end, and
// Ctrl-C or SIGTERM flushes it and exits 130:
//
//	# a checkpointed exact-mode shard; Ctrl-C flushes the snapshot
//	cookieattack -mode exact -ciphertexts 4194304 -seed 1 \
//	             -checkpoint shard1.snap -collect-only
//	# resume the killed shard from its checkpoint (same flags + -resume)
//	cookieattack -mode exact -ciphertexts 4194304 -seed 1 \
//	             -checkpoint shard1.snap -resume shard1.snap -collect-only
//	# a second, independently-seeded shard
//	cookieattack -mode model -ciphertexts 4194304 -seed 2 \
//	             -checkpoint shard2.snap -collect-only
//	# merge the shards and run the recovery phase on the pooled evidence
//	cookieattack -ciphertexts 0 -merge shard1.snap,shard2.snap
//
// Online mode closes the loop the way §6.2 describes — brute-forcing the
// candidate list against the server while capture continues — decoding on a
// cadence and stopping at the first server-confirmed cookie, usually far
// below the fixed budget:
//
//	cookieattack -online                       # geometric cadence 2^27, 2^28, ...
//	cookieattack -online -decode-every 33554432 # decode every 2^25 records
//	# an interrupted online run resumes mid-cadence
//	cookieattack -online -mode exact -checkpoint run.snap -resume run.snap
//
// Fleet-worker mode turns the driver into one capture node of a distributed
// run: it joins the cmd/fleetd coordinator, leases disjoint capture lanes,
// and streams each lane's evidence snapshot back until the coordinator
// confirms a cookie (see the fleet package):
//
//	cookieattack -fleet-worker coordinator:7100 -worker-id m1
//
// Trace mode ingests sniffed captures instead of simulating collection —
// the §6.3 pipeline (TCP reassembly, TLS record scanning, fixed-size
// request filtering) over pcap/pcapng files — and -write-pcap produces
// such captures from the simulator (the round trip is pinned bitwise
// against in-process capture):
//
//	cookieattack -write-pcap https.pcapng -ciphertexts 4194304 -seed 1
//	cookieattack -pcap https.pcapng -ciphertexts 4194304 -checkpoint shard.snap -collect-only
//	cookieattack -fleet-worker coordinator:7100 -pcap 'shard-*.pcap'   # serve exact lanes from trace shards
package main

import (
	"os"

	"rc4break/internal/job"
)

func main() { os.Exit(job.Main("cookie", os.Args[1:])) }
