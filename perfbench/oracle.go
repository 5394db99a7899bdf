package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"

	"soidomino/internal/service"
)

// answerBook is the output oracle of the service workloads. While a run
// is timed it only parses each reply and files the digest of its result
// bytes by key; afterwards verify derives every key in process and checks
// each distinct answer against the derivation's EncodeJSON bytes.
//
// Replies embed the result compact (through the router) or indented
// (straight from a replica), so digests are taken over the compact form:
// two results compare equal only if their JSON token streams are
// identical, which for the deterministic EncodeJSON encoding means equal
// bytes once indented.
type answerBook struct {
	mu        sync.Mutex
	digests   map[int]map[string]int // key → compact result digest → replies
	tiers     map[string]int
	queueWait []float64
	sampled   []string // job ids of trace-sampled replies
}

func newAnswerBook() *answerBook {
	return &answerBook{digests: map[int]map[string]int{}, tiers: map[string]int{}}
}

// compactDigest is the sha256 of b's compact JSON form.
func compactDigest(b []byte) (string, error) {
	if bytes.IndexByte(b, '\n') < 0 {
		return sha(b), nil
	}
	var c bytes.Buffer
	if err := json.Compact(&c, b); err != nil {
		return "", err
	}
	return sha(c.Bytes()), nil
}

// record files one reply to a submission of key k. It returns the
// answer's cache tier, or an error when the reply is not a finished job.
func (b *answerBook) record(k, status int, body []byte, sampled bool) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return "", fmt.Errorf("decode reply: %w", err)
	}
	if a.State != string(service.JobDone) || len(a.Result) == 0 {
		return "", fmt.Errorf("job %s ended %s: %s", a.ID, a.State, a.Error)
	}
	d, err := compactDigest(a.Result)
	if err != nil {
		return "", err
	}
	tier := "none"
	if a.Attribution != nil {
		tier = a.Attribution.CacheTier
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.digests[k] == nil {
		b.digests[k] = map[string]int{}
	}
	b.digests[k][d]++
	b.tiers[tier]++
	if a.Attribution != nil {
		b.queueWait = append(b.queueWait, a.Attribution.QueueWaitMS)
	}
	if sampled {
		b.sampled = append(b.sampled, a.ID)
	}
	return tier, nil
}

// mergeDigests files o's answers in b, leaving b's tier counts as they
// are.
func (b *answerBook) mergeDigests(o *answerBook) {
	for k, ds := range o.digests {
		if b.digests[k] == nil {
			b.digests[k] = map[string]int{}
		}
		for d, n := range ds {
			b.digests[k][d] += n
		}
	}
}

// verified is what the oracle found.
type verified struct {
	failed int // replies whose result differs from the derivation
	keys   int // distinct keys answered
	tTotal map[int]int
	tDisch map[int]int
}

// sum adds up T_total and T_disch over keys, which must all have been
// answered.
func (v verified) sum(keys []int) (tTotal, tDisch int) {
	for _, k := range keys {
		tTotal += v.tTotal[k]
		tDisch += v.tDisch[k]
	}
	return tTotal, tDisch
}

// verify derives every answered key with the soimap -json path and
// compares each distinct answer with the derivation's EncodeJSON bytes.
func (b *answerBook) verify(ctx context.Context, keys []keyed) (verified, error) {
	v := verified{tTotal: map[int]int{}, tDisch: map[int]int{}}
	ks := make([]int, 0, len(b.digests))
	for k := range b.digests {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		d, err := keys[k].expect(ctx)
		if err != nil {
			return v, fmt.Errorf("derive %s: %w", keys[k].label, err)
		}
		want, err := compactDigest(d.json)
		if err != nil {
			return v, err
		}
		v.keys++
		v.tTotal[k] = d.res.Stats.TTotal
		v.tDisch[k] = d.res.Stats.TDisch
		for digest, n := range b.digests[k] {
			if digest != want {
				fmt.Fprintf(os.Stderr, "oracle: %d answer(s) for %s differ from the derivation\n", n, keys[k].label)
				v.failed += n
			}
		}
	}
	return v, nil
}
