package service

import (
	"net/http"
	"runtime/debug"
	"strings"
)

// withRecovery is the outermost middleware: a panic escaping any handler
// is turned into a 500 instead of tearing down the whole connection (and,
// under http.Serve, flooding the log with goroutine dumps). The redacted
// frame list goes to the client; the full stack only to the server log.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			stack := debug.Stack()
			s.metrics.add("http_panics", 1)
			s.logger.Error("handler panicked",
				"method", r.Method, "path", r.URL.Path,
				"panic", rec, "stack", string(stack))
			// The handler may have already written a header; WriteHeader
			// after that point logs a spurious warning but is harmless.
			WriteError(w, http.StatusInternalServerError, "internal error: "+redactStack(stack))
		}()
		next.ServeHTTP(w, r)
	})
}

// redactStack compresses a debug.Stack dump into a short chain of
// function names safe to hand to a client: no addresses, no argument
// values, no file-system paths, at most maxRedactedFrames frames.
const maxRedactedFrames = 12

func redactStack(stack []byte) string {
	var frames []string
	for _, line := range strings.Split(string(stack), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "goroutine "):
			continue // header
		case strings.HasPrefix(line, "\t"):
			continue // file:line — paths stay server-side
		case strings.HasPrefix(line, "created by "):
			continue
		}
		// "pkg/path.Func(0x1234, ...)" → "pkg/path.Func"
		if i := strings.LastIndex(line, "("); i > 0 {
			line = line[:i]
		}
		// Skip the recovery machinery itself so the first frame is the
		// panic site.
		if strings.Contains(line, "runtime/debug.Stack") ||
			strings.Contains(line, "runtime.gopanic") ||
			strings.Contains(line, "service.redactStack") {
			continue
		}
		frames = append(frames, line)
		if len(frames) == maxRedactedFrames {
			break
		}
	}
	return strings.Join(frames, " < ")
}
