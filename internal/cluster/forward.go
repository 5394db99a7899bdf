package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"soidomino/internal/service"
)

// reply is a replica's job view as the router forwards it: the view
// header rewritten into the router's namespace, and the replica's result
// bytes as they arrived (nil when the job has none yet). Coalesced
// followers share one reply, so it is complete before the flight lands.
type reply struct {
	header []byte
	result []byte
	state  service.JobState
	tier   string // attribution.cache_tier, "" when absent
}

// parseReply reads a replica's job view body without decoding its
// result: it walks the header members up to "result", which replicas
// write last, and checks that the rest is one valid JSON value. The
// header gets the router's fix-ups, each an insertion into its bytes:
// prefix namespaces the job id, a non-empty replicaURL fills a blank
// attribution.replica, and a non-empty traceID fills a missing trace_id
// (both quoted with strconv.Quote, whose output for a URL or a hex id is
// JSON). A body that does not read this way is an error.
func parseReply(body []byte, prefix, replicaURL, traceID string) (*reply, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); t != json.Delim('{') {
		return nil, fmt.Errorf("replica view: not a JSON object (%v)", err)
	}
	r := &reply{}
	var header []byte
	last, end, sawTrace := 0, 0, false
	insert := func(at int, s string) {
		header = append(append(header, body[last:at]...), s...)
		last = at
	}
	for end = int(dec.InputOffset()); dec.More(); end = int(dec.InputOffset()) {
		key, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("replica view: %w", err)
		}
		if key == "result" {
			tail := bytes.TrimSpace(body[dec.InputOffset():])
			if n := len(tail); n < 2 || tail[0] != ':' || tail[n-1] != '}' || !json.Valid(tail[1:n-1]) {
				return nil, errors.New("replica view: result is not a valid last member")
			}
			r.result = bytes.TrimSpace(tail[1 : len(tail)-1])
			break
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("replica view: %v: %w", key, err)
		}
		at := int(dec.InputOffset()) - len(raw) + 1 // just inside the value
		switch key {
		case "id":
			if raw[0] != '"' {
				err = errors.New("not a string")
			}
			insert(at, prefix)
		case "state":
			err = json.Unmarshal(raw, &r.state)
		case "trace_id":
			sawTrace = true
		case "attribution":
			var a service.Attribution
			err = json.Unmarshal(raw, &a)
			r.tier = a.CacheTier
			// cache_tier is always present, so a member follows the insert.
			if err == nil && a.Replica == "" && a.CacheTier != "" && replicaURL != "" {
				insert(at, `"replica":`+strconv.Quote(replicaURL)+",")
			}
		}
		if err != nil {
			return nil, fmt.Errorf("replica view: %v: %w", key, err)
		}
	}
	if r.state == "" {
		return nil, errors.New("replica view: no state")
	}
	if traceID != "" && !sawTrace {
		insert(end, `,"trace_id":`+strconv.Quote(traceID))
	}
	r.header = append(append(header, body[last:end]...), '}')
	return r, nil
}
