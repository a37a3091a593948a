package rc4

// The MultiCipher compute kernels.
//
// The loops are inverted relative to a naive batch walk: the outer loop
// picks a group of laneGroup lanes, and the inner loop runs all requested
// rounds for just that group, carrying the group's j indices (and the public
// counter i) in registers the whole way. Lanes own disjoint 256-byte S
// blocks, so group passes commute and the batch result is independent of the
// grouping. The laneGroup independent j-chains give the out-of-order core
// its parallelism; the serial recurrence left per lane is a single add per
// round, because the x = S[i] load address depends only on the public i.
//
// Why lane-major and not an element-major SoA row walk: profiling the
// row-major variant showed the kernel entirely throughput-bound on address
// arithmetic — every S access needed an index*MultiLanes shift plus an LEA
// chain for the lane offset, and the extra live temporaries spilled the j
// registers to the stack. With each lane's S contiguous, the group's four
// blocks sit at constant offsets 0/256/512/768 from one reslice, so every
// access folds into a single load with a constant displacement and the whole
// working set of a pass (4×256 B of S plus the destinations) stays in a
// handful of registers and L1 lines.
//
// Bounds-check elimination: each pass narrows m.s (and m.kbuf) to a
// laneGroup*StateSize array pointer — an explicit array type, because prove
// does not recover a constant length from a variable-base reslice — and
// every index inside is a uint8 plus a constant block offset, so the prove
// pass drops all checks in the hot loops — run
// `go build -gcflags='-d=ssa/check_bce/debug=1' ./internal/rc4` to verify
// when changing them.

// laneGroup is how many lanes one kernel pass interleaves. Four j-chains in
// flight hide the add/load latencies without spilling the per-lane
// temporaries out of registers on amd64 or arm64.
const laneGroup = 4

// ksa runs the batched Key Scheduling Algorithm over the tiled key material
// in m.kbuf, leaving every lane keyed and the PRGA indices reset. The KSA's
// mixing counter is public and key-independent — exactly like the PRGA's i —
// so lanes batch the same way.
func (m *MultiCipher) ksa() {
	for l := 0; l < MultiLanes; l++ {
		copy(m.s[l*StateSize:], identity[:])
	}
	for l0 := 0; l0 < MultiLanes; l0 += laneGroup {
		m.ksaLanes(l0)
	}
	m.i = 0
	m.j = [MultiLanes]uint8{}
}

// ksaLanes runs the KSA mixing loop for lanes l0..l0+laneGroup-1.
func (m *MultiCipher) ksaLanes(l0 int) {
	l0 &= MultiLanes - laneGroup
	s := (*[laneGroup * StateSize]byte)(m.s[l0*StateSize:])
	k := (*[laneGroup * StateSize]byte)(m.kbuf[l0*StateSize:])
	var j0, j1, j2, j3 uint8
	for p := 0; p < StateSize; p++ {
		x0 := s[p]
		j0 += x0 + k[p]
		s[p] = s[int(j0)]
		s[int(j0)] = x0

		x1 := s[p+StateSize]
		j1 += x1 + k[p+StateSize]
		s[p+StateSize] = s[int(j1)+StateSize]
		s[int(j1)+StateSize] = x1

		x2 := s[p+2*StateSize]
		j2 += x2 + k[p+2*StateSize]
		s[p+2*StateSize] = s[int(j2)+2*StateSize]
		s[int(j2)+2*StateSize] = x2

		x3 := s[p+3*StateSize]
		j3 += x3 + k[p+3*StateSize]
		s[p+3*StateSize] = s[int(j3)+3*StateSize]
		s[int(j3)+3*StateSize] = x3
	}
}

// runLanes advances lanes l0..l0+laneGroup-1: skip rounds without output,
// then one keystream byte per round into d0..d3 (equal lengths; nil for
// skip-only). The caller owns updating m.i — runLanes walks a local copy so
// every group pass starts from the same counter. A skip round is a generate
// round minus the output gather; the output byte reads S after both swap
// stores, matching the scalar PRGA (when x+y lands on i or j, the gather
// must observe the fresh value).
func (m *MultiCipher) runLanes(l0, skip int, d0, d1, d2, d3 []byte) {
	l0 &= MultiLanes - laneGroup
	s := (*[laneGroup * StateSize]byte)(m.s[l0*StateSize:])
	i := m.i
	j0, j1, j2, j3 := m.j[l0], m.j[l0+1], m.j[l0+2], m.j[l0+3]
	for ; skip > 0; skip-- {
		i++
		ii := int(i)

		x0 := s[ii]
		j0 += x0
		y0 := s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0

		x1 := s[ii+StateSize]
		j1 += x1
		y1 := s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1

		x2 := s[ii+2*StateSize]
		j2 += x2
		y2 := s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2

		x3 := s[ii+3*StateSize]
		j3 += x3
		y3 := s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
	}
	d1 = d1[:len(d0)]
	d2 = d2[:len(d0)]
	d3 = d3[:len(d0)]
	// Generate loop, unrolled 8 rounds deep. The kernel is front-end
	// bound, so the unroll exists to make every index a small constant:
	// the destinations advance by 8 each block and the output writes
	// d[0..7] fold into constant store displacements, the same way the
	// lane offsets fold into the S accesses. The anchor loads below teach
	// prove that d1..d3 are as long as d0 (the reslices above guarantee
	// it), killing the per-write bounds checks; the tail loop handles the
	// last len%8 rounds one byte at a time.
	for len(d0) >= 8 {
		_, _, _ = d1[7], d2[7], d3[7]
		i++
		ii := int(i)
		x0 := s[ii]
		j0 += x0
		y0 := s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[0] = s[int(x0+y0)]
		x1 := s[ii+StateSize]
		j1 += x1
		y1 := s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[0] = s[int(x1+y1)+StateSize]
		x2 := s[ii+2*StateSize]
		j2 += x2
		y2 := s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[0] = s[int(x2+y2)+2*StateSize]
		x3 := s[ii+3*StateSize]
		j3 += x3
		y3 := s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[0] = s[int(x3+y3)+3*StateSize]

		i++
		ii = int(i)
		x0 = s[ii]
		j0 += x0
		y0 = s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[1] = s[int(x0+y0)]
		x1 = s[ii+StateSize]
		j1 += x1
		y1 = s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[1] = s[int(x1+y1)+StateSize]
		x2 = s[ii+2*StateSize]
		j2 += x2
		y2 = s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[1] = s[int(x2+y2)+2*StateSize]
		x3 = s[ii+3*StateSize]
		j3 += x3
		y3 = s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[1] = s[int(x3+y3)+3*StateSize]

		i++
		ii = int(i)
		x0 = s[ii]
		j0 += x0
		y0 = s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[2] = s[int(x0+y0)]
		x1 = s[ii+StateSize]
		j1 += x1
		y1 = s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[2] = s[int(x1+y1)+StateSize]
		x2 = s[ii+2*StateSize]
		j2 += x2
		y2 = s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[2] = s[int(x2+y2)+2*StateSize]
		x3 = s[ii+3*StateSize]
		j3 += x3
		y3 = s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[2] = s[int(x3+y3)+3*StateSize]

		i++
		ii = int(i)
		x0 = s[ii]
		j0 += x0
		y0 = s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[3] = s[int(x0+y0)]
		x1 = s[ii+StateSize]
		j1 += x1
		y1 = s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[3] = s[int(x1+y1)+StateSize]
		x2 = s[ii+2*StateSize]
		j2 += x2
		y2 = s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[3] = s[int(x2+y2)+2*StateSize]
		x3 = s[ii+3*StateSize]
		j3 += x3
		y3 = s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[3] = s[int(x3+y3)+3*StateSize]

		i++
		ii = int(i)
		x0 = s[ii]
		j0 += x0
		y0 = s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[4] = s[int(x0+y0)]
		x1 = s[ii+StateSize]
		j1 += x1
		y1 = s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[4] = s[int(x1+y1)+StateSize]
		x2 = s[ii+2*StateSize]
		j2 += x2
		y2 = s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[4] = s[int(x2+y2)+2*StateSize]
		x3 = s[ii+3*StateSize]
		j3 += x3
		y3 = s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[4] = s[int(x3+y3)+3*StateSize]

		i++
		ii = int(i)
		x0 = s[ii]
		j0 += x0
		y0 = s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[5] = s[int(x0+y0)]
		x1 = s[ii+StateSize]
		j1 += x1
		y1 = s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[5] = s[int(x1+y1)+StateSize]
		x2 = s[ii+2*StateSize]
		j2 += x2
		y2 = s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[5] = s[int(x2+y2)+2*StateSize]
		x3 = s[ii+3*StateSize]
		j3 += x3
		y3 = s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[5] = s[int(x3+y3)+3*StateSize]

		i++
		ii = int(i)
		x0 = s[ii]
		j0 += x0
		y0 = s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[6] = s[int(x0+y0)]
		x1 = s[ii+StateSize]
		j1 += x1
		y1 = s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[6] = s[int(x1+y1)+StateSize]
		x2 = s[ii+2*StateSize]
		j2 += x2
		y2 = s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[6] = s[int(x2+y2)+2*StateSize]
		x3 = s[ii+3*StateSize]
		j3 += x3
		y3 = s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[6] = s[int(x3+y3)+3*StateSize]

		i++
		ii = int(i)
		x0 = s[ii]
		j0 += x0
		y0 = s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[7] = s[int(x0+y0)]
		x1 = s[ii+StateSize]
		j1 += x1
		y1 = s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[7] = s[int(x1+y1)+StateSize]
		x2 = s[ii+2*StateSize]
		j2 += x2
		y2 = s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[7] = s[int(x2+y2)+2*StateSize]
		x3 = s[ii+3*StateSize]
		j3 += x3
		y3 = s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[7] = s[int(x3+y3)+3*StateSize]

		d0 = d0[8:]
		d1 = d1[8:]
		d2 = d2[8:]
		d3 = d3[8:]
	}
	for r := range d0 {
		i++
		ii := int(i)

		x0 := s[ii]
		j0 += x0
		y0 := s[int(j0)]
		s[ii] = y0
		s[int(j0)] = x0
		d0[r] = s[int(x0+y0)]

		x1 := s[ii+StateSize]
		j1 += x1
		y1 := s[int(j1)+StateSize]
		s[ii+StateSize] = y1
		s[int(j1)+StateSize] = x1
		d1[r] = s[int(x1+y1)+StateSize]

		x2 := s[ii+2*StateSize]
		j2 += x2
		y2 := s[int(j2)+2*StateSize]
		s[ii+2*StateSize] = y2
		s[int(j2)+2*StateSize] = x2
		d2[r] = s[int(x2+y2)+2*StateSize]

		x3 := s[ii+3*StateSize]
		j3 += x3
		y3 := s[int(j3)+3*StateSize]
		s[ii+3*StateSize] = y3
		s[int(j3)+3*StateSize] = x3
		d3[r] = s[int(x3+y3)+3*StateSize]
	}
	m.j[l0], m.j[l0+1], m.j[l0+2], m.j[l0+3] = j0, j1, j2, j3
}
