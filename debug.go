package consensusinside

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/obs"
)

// debugServer is the live introspection surface a KV can attach: one
// HTTP listener serving the unified metrics registry, the command
// tracer's recent samples, the rare-event timeline, and net/http/pprof
// — on its own mux, so attaching it never touches the process-global
// DefaultServeMux.
type debugServer struct {
	ln  net.Listener
	srv *http.Server
}

func (d *debugServer) close() {
	// Close (not Shutdown): the surface is diagnostic; a deployment
	// tearing down should not wait on a straggling pprof profile.
	d.srv.Close()
}

// ServeDebug starts the debug HTTP listener on addr ("127.0.0.1:0"
// picks a free port — read it back with DebugAddr). The surface:
//
//	/debug/metrics  the KV.Obs snapshot as JSON: counters by name,
//	                histogram summaries, the flat dump and the event
//	                tail (see internal/obs)
//	/debug/trace    the command tracer's snapshot: per-stage latency
//	                breakdowns and the ring of recent samples
//	/debug/events   the rare-event timeline (leader changes, lease
//	                grants/expiries, recovery episodes)
//	/debug/pprof/   the standard net/http/pprof handlers
//
// It fails if a debug listener is already serving or the address
// cannot be bound. KVConfig.DebugAddr calls it from StartKV; Close
// stops it with the service.
func (kv *KV) ServeDebug(addr string) error {
	if kv.debug != nil {
		return fmt.Errorf("consensusinside: debug server already serving on %s", kv.DebugAddr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("consensusinside: debug listen %s: %w", addr, err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, map[string]string{
			"metrics": "/debug/metrics",
			"trace":   "/debug/trace",
			"events":  "/debug/events",
			"pprof":   "/debug/pprof/",
		})
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, debugMetrics(kv.Obs()))
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, kv.Trace())
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		events := kv.Events().Tail(0)
		if events == nil {
			events = []obs.Event{}
		}
		writeJSON(w, struct {
			Total  int64       `json:"total"`
			Events []obs.Event `json:"events"`
		}{kv.Events().Total(), events})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	kv.debug = &debugServer{ln: ln, srv: srv}
	go srv.Serve(ln)
	return nil
}

// DebugAddr reports the debug listener's bound address ("" if none is
// serving) — the port to curl when the config asked for ":0".
func (kv *KV) DebugAddr() string {
	if kv.debug == nil {
		return ""
	}
	return kv.debug.ln.Addr().String()
}

// debugMetricsPayload is /debug/metrics' JSON shape: the registry
// snapshot's counters verbatim, histogram summaries (the buckets don't
// marshal), the flat uniform dump every -json consumer shares, and the
// sorted name directory.
type debugMetricsPayload struct {
	Counters map[string]int64           `json:"counters"`
	Hists    map[string]metrics.Summary `json:"hists"`
	Flat     map[string]float64         `json:"flat"`
	Names    []string                   `json:"names"`
	Events   []obs.Event                `json:"events"`
}

func debugMetrics(s obs.Snapshot) debugMetricsPayload {
	events := s.Events
	if events == nil {
		events = []obs.Event{}
	}
	return debugMetricsPayload{
		Counters: s.Counters,
		Hists:    s.HistStats(),
		Flat:     s.Flatten(),
		Names:    s.Names(),
		Events:   events,
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
