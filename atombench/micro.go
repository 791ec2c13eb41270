package main

import (
	"fmt"
	"time"

	"atom"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/protocol"
)

// Below protocol the crypto layers cannot be observed from outside
// while a round runs, so the traced run times their exported functions
// directly, on operands shaped like the ones its workload produced: the
// workload's own generated submissions, its mean admission batch, its
// per-group mixing batch and its lanes (points per same-scalar batch).
// Timings are single-threaded medians, so they are per-operation costs,
// not shares of wall time.

// shape is what a workload tells the crypto timings about its operands.
type shape struct {
	variant   atom.Variant
	wires     [][]byte // generated submissions, at least 256 where the workload has them
	entryKeys [][]byte
	// admitBatch is the mean admission batch the traced pass saw.
	admitBatch float64
	// groupBatch is the vectors one group mixes per layer; 0 when the
	// workload never mixes.
	groupBatch int
	// nizkMix: mixing proves and verifies re-encryption and shuffle
	// proofs (the NIZK variant's mixing).
	nizkMix bool
	pads    atom.PadStats
}

// encUnit is one admission proof: the unit VerifyEncBatch checks.
type encUnit struct {
	pk    *ecc.Point
	vec   elgamal.Vector
	gid   uint64
	proof *nizk.EncProof
}

// decodeUnits decodes the sample's submissions into admission units and
// per-submission unit counts (two per trap submission).
func decodeUnits(sh shape) ([]encUnit, int, error) {
	pks := make([]*ecc.Point, len(sh.entryKeys))
	for i, k := range sh.entryKeys {
		p, err := ecc.PointFromBytes(k)
		if err != nil {
			return nil, 0, err
		}
		pks[i] = p
	}
	var units []encUnit
	per := 1
	for _, w := range sh.wires {
		if sh.variant == atom.Trap {
			per = 2
			s, err := protocol.DecodeTrapSubmission(w)
			if err != nil {
				return nil, 0, err
			}
			for c := range s.Ciphertexts {
				units = append(units, encUnit{pks[s.GID], s.Ciphertexts[c], uint64(s.GID), s.Proofs[c]})
			}
			continue
		}
		s, err := protocol.DecodeSubmission(w)
		if err != nil {
			return nil, 0, err
		}
		units = append(units, encUnit{pks[s.GID], s.Ciphertext, uint64(s.GID), s.Proof})
	}
	return units, per, nil
}

// timeOp runs op at least three times and for at least 200ms (at most
// 1000 times) and returns the median duration of one call.
func timeOp(op func() error) (time.Duration, error) {
	var runs []float64
	begin := time.Now()
	for len(runs) < 3 || (time.Since(begin) < 200*time.Millisecond && len(runs) < 1000) {
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		runs = append(runs, float64(time.Since(start)))
	}
	return time.Duration(median(runs)), nil
}

// cryptoMetrics times the crypto layers at the workload's shape.
// Operations the workload never performs read 0.
func cryptoMetrics(sh shape, seed int64) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, name := range []string{"nizk.prove_reenc_us", "nizk.verify_reenc_us_per_vec", "elgamal.reenc_us_per_vec", "elgamal.shuffle_us_per_vec"} {
		put(name, "us", 0)
	}
	put("nizk.prove_shuffle_ms", "ms", 0)
	put("nizk.verify_shuffle_ms", "ms", 0)
	pad := 0.0
	if n := sh.pads.Hits + sh.pads.Misses; n > 0 {
		pad = float64(sh.pads.Hits) / float64(n)
	}
	put("elgamal.pad_hit_ratio", "ratio", pad)

	units, per, err := decodeUnits(sh)
	if err != nil {
		return nil, fmt.Errorf("decoding the generated submissions: %w", err)
	}
	rnd := chacha(seed, "crypto-timing")
	us := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }

	// Admission: batched proof verification, and the MSM at its core.
	verifyBatch := func(subs int) (time.Duration, error) {
		if subs*per > len(units) {
			return 0, fmt.Errorf("need %d generated submissions, have %d", subs, len(units)/per)
		}
		b := units[:subs*per]
		pks, vecs, gids, proofs := make([]*ecc.Point, len(b)), make([]elgamal.Vector, len(b)), make([]uint64, len(b)), make([]*nizk.EncProof, len(b))
		for i, u := range b {
			pks[i], vecs[i], gids[i], proofs[i] = u.pk, u.vec, u.gid, u.proof
		}
		return timeOp(func() error { return nizk.VerifyEncBatch(pks, vecs, gids, proofs) })
	}
	admit := max(int(sh.admitBatch+0.5), 1)
	d, err := verifyBatch(admit)
	if err != nil {
		return nil, fmt.Errorf("nizk.VerifyEncBatch: %w", err)
	}
	put("nizk.verify_enc_batch_us_per_sub", "us", us(d, admit))
	// A short run may have generated fewer than 256 submissions.
	b256 := min(256, len(units)/per)
	if d, err = verifyBatch(b256); err != nil {
		return nil, fmt.Errorf("nizk.VerifyEncBatch: %w", err)
	}
	put("nizk.verify_enc_batch_us_per_sub.b256", "us", us(d, b256))

	// The MSM VerifyEncBatch runs: two terms (commitment, R) per
	// ciphertext component of the admission batch.
	var ks []*ecc.Scalar
	var ps []*ecc.Point
	for _, u := range units[:min(admit*per, len(units))] {
		for i, ct := range u.vec {
			ks = append(ks, ecc.MustRandomScalar(rnd), ecc.MustRandomScalar(rnd))
			ps = append(ps, u.proof.Commit[i], ct.R)
		}
	}
	if d, err = timeOp(func() error { ecc.MultiScalarMul(ks, ps); return nil }); err != nil {
		return nil, err
	}
	put("ecc.msm_us_per_term", "us", us(d, len(ps)))

	// Point decoding, on the encodings of real ciphertext components.
	var encs [][]byte
	for _, u := range units[:min(128, len(units))] {
		for _, ct := range u.vec {
			encs = append(encs, ct.R.Bytes(), ct.C.Bytes())
		}
	}
	if d, err = timeOp(func() error {
		for _, e := range encs {
			if _, err := ecc.PointFromBytes(e); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("ecc.PointFromBytes: %w", err)
	}
	put("ecc.point_decode_us", "us", us(d, len(encs)))

	// Mixing operands: one group's batch of real vectors. A workload that
	// never mixes takes its lanes from the admission batch.
	vecsPer := len(units[0].vec)
	batch := make([]elgamal.Vector, 0, sh.groupBatch)
	for i := 0; len(batch) < sh.groupBatch; i++ {
		batch = append(batch, units[i%len(units)].vec)
	}
	lanes := sh.groupBatch * vecsPer
	if lanes == 0 {
		lanes = admit * per * vecsPer
	}
	pts := make([]*ecc.Point, lanes)
	for i := range pts {
		u := units[(i/vecsPer)%len(units)]
		pts[i] = u.vec[i%vecsPer].R
	}
	k := ecc.MustRandomScalar(rnd)
	if d, err = timeOp(func() error { ecc.MulSameScalarBatch(k, pts); return nil }); err != nil {
		return nil, err
	}
	put("ecc.same_scalar_us_per_pt", "us", us(d, lanes))
	if sh.groupBatch == 0 {
		return m, nil
	}

	key, err := elgamal.KeyGen(rnd)
	if err != nil {
		return nil, err
	}
	next, err := elgamal.KeyGen(rnd)
	if err != nil {
		return nil, err
	}
	n := len(batch)
	if d, err = timeOp(func() error { _, _, _, err := elgamal.ShuffleBatch(key.PK, batch, rnd); return err }); err != nil {
		return nil, fmt.Errorf("elgamal.ShuffleBatch: %w", err)
	}
	put("elgamal.shuffle_us_per_vec", "us", us(d, n))
	if d, err = timeOp(func() error { _, _, err := elgamal.ReEncBatch(key.SK, next.PK, batch, rnd); return err }); err != nil {
		return nil, fmt.Errorf("elgamal.ReEncBatch: %w", err)
	}
	put("elgamal.reenc_us_per_vec", "us", us(d, n))
	if !sh.nizkMix {
		return m, nil
	}

	shuffled, perm, rands, err := elgamal.ShuffleBatch(key.PK, batch, rnd)
	if err != nil {
		return nil, err
	}
	var shufProof *nizk.ShufProof
	if d, err = timeOp(func() error {
		shufProof, err = nizk.ProveShuffle(key.PK, batch, shuffled, perm, rands, rnd)
		return err
	}); err != nil {
		return nil, fmt.Errorf("nizk.ProveShuffle: %w", err)
	}
	put("nizk.prove_shuffle_ms", "ms", float64(d)/float64(time.Millisecond))
	if d, err = timeOp(func() error { return nizk.VerifyShuffle(key.PK, batch, shuffled, shufProof) }); err != nil {
		return nil, fmt.Errorf("nizk.VerifyShuffle: %w", err)
	}
	put("nizk.verify_shuffle_ms", "ms", float64(d)/float64(time.Millisecond))

	outs, rs, err := elgamal.ReEncBatch(key.SK, next.PK, shuffled, rnd)
	if err != nil {
		return nil, err
	}
	proofs := make([]*nizk.ReEncProof, n)
	if d, err = timeOp(func() error {
		for i := range shuffled {
			if proofs[i], err = nizk.ProveReEnc(key.SK, key.PK, next.PK, shuffled[i], outs[i], rs[i], rnd); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("nizk.ProveReEnc: %w", err)
	}
	put("nizk.prove_reenc_us", "us", us(d, n))
	if d, err = timeOp(func() error { return nizk.VerifyReEncBatch(key.PK, next.PK, shuffled, outs, proofs, nil) }); err != nil {
		return nil, fmt.Errorf("nizk.VerifyReEncBatch: %w", err)
	}
	put("nizk.verify_reenc_us_per_vec", "us", us(d, n))
	return m, nil
}
