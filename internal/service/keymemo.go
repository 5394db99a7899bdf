package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"soidomino/internal/blif"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/service/cache"
)

// keyMemoEntries bounds every request-key memo. An entry is a 32-byte
// digest, a ~150-byte key and a label, so a full memo holds about 1 MB.
const keyMemoEntries = 4096

// KeyMemo remembers the request key of every submission this process
// has keyed, so a resubmission skips parse, strash and canon. The key
// is a pure function of the source kind and text, the defaulted
// algorithm and the encoded resolved options, and the memo is keyed by
// a digest of exactly those fields: respelled JSON bodies of one
// submission share an entry, and any field that shapes the key splits
// it (DESIGN.md §12.1). Errors are never memoized. Each Server and each
// cluster Router owns one; it is safe for concurrent use.
type KeyMemo struct {
	lru *cache.LRU[[32]byte, keyEntry]
}

// keyEntry is what a memo hit yields: the submission's cache key and its
// job label (benchmark name or parsed model name).
type keyEntry struct {
	key   string
	label string
}

// NewKeyMemo returns an empty memo of keyMemoEntries entries.
func NewKeyMemo() *KeyMemo {
	return &KeyMemo{lru: cache.New[[32]byte, keyEntry](keyMemoEntries)}
}

// RequestKey is the memoized RequestKey: the same key or error, plus
// whether the key came from the memo.
func (m *KeyMemo) RequestKey(ctx context.Context, req *MapRequest) (key string, hit bool, err error) {
	opt, optErr := OptionsFromRequest(req.Options)
	ent, _, hit, err := m.resolve(ctx, req, defaultAlgorithm(req.Algorithm), opt, optErr, 0)
	return ent.key, hit, err
}

// tooLargeError rejects a source network over the node bound (HTTP 413).
type tooLargeError struct{ nodes, limit int }

func (e *tooLargeError) Error() string {
	return fmt.Sprintf("network has %d nodes, limit is %d", e.nodes, e.limit)
}

// resolve keys req, given its defaulted algorithm and its resolved
// options (with any process-wide strash opt-out already applied) or their
// resolution error. maxNodes > 0 bounds the parsed source (a
// *tooLargeError past it), so an entry exists only for a submission that
// passed every check under this process's configuration. On a hit src is
// nil: the caller parses only if it must map. A hit on a BLIF source
// still fires the blif.parse fault point it skipped, so the memo hides no
// injected fault.
func (m *KeyMemo) resolve(ctx context.Context, req *MapRequest, algo string, opt mapper.Options, optErr error, maxNodes int) (ent keyEntry, src *logic.Network, hit bool, err error) {
	// A request that fails a check cannot have an entry, so skip the
	// digest and let keyRequest report the error in its usual order.
	_, algoErr := mapper.ParseAlgorithm(algo)
	valid := optErr == nil && algoErr == nil && sourceCount(req) == 1
	var d [32]byte
	if valid {
		d = requestDigest(req, algo, opt)
		if ent, ok := m.lru.Get(d); ok {
			if req.BLIF != "" {
				if err := blif.CheckFault(ctx); err != nil {
					return keyEntry{}, nil, true, fmt.Errorf("blif: %w", err)
				}
			}
			return ent, nil, true, nil
		}
	}
	ent, src, err = keyRequest(ctx, req, algo, opt, optErr, maxNodes)
	if err == nil && valid {
		m.lru.Add(d, ent)
	}
	return ent, src, false, err
}

// keyRequest parses req's source and computes its key, validating in the
// order the API reports errors: source, node bound, algorithm, options.
func keyRequest(ctx context.Context, req *MapRequest, algo string, opt mapper.Options, optErr error, maxNodes int) (keyEntry, *logic.Network, error) {
	src, label, err := parseSource(ctx, req)
	if err != nil {
		return keyEntry{}, nil, err
	}
	if maxNodes > 0 && src.Len() > maxNodes {
		return keyEntry{}, nil, &tooLargeError{src.Len(), maxNodes}
	}
	if _, err := mapper.ParseAlgorithm(algo); err != nil {
		return keyEntry{}, nil, err
	}
	if optErr != nil {
		return keyEntry{}, nil, optErr
	}
	return keyEntry{CacheKey(src, algo, opt), label}, src, nil
}

// requestDigest hashes the key-shaping fields of a valid request. Every
// field is length-prefixed, so no two field lists hash the same bytes:
// a circuit, BLIF and bench source of one text stay apart.
func requestDigest(req *MapRequest, algo string, opt mapper.Options) [32]byte {
	kind, text := "circuit", req.Circuit
	switch {
	case req.BLIF != "":
		kind, text = "blif", req.BLIF
	case req.Bench != "":
		kind, text = "bench", req.Bench
	}
	h := sha256.New()
	for _, field := range []string{kind, text, algo, encodeOptions(opt)} {
		writeField(h, field)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func writeField(h hash.Hash, s string) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}
