package events

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// SSEHandler streams the ledger as Server-Sent Events: one message per
// event with the sequence id as the SSE id, so a client reconnecting with
// Last-Event-ID resumes exactly where it stopped (or at the oldest
// retained event, flagged by a "gap" comment, when the ring has rotated
// past it). Without Last-Event-ID the stream replays the retained history
// and then follows the run live until the client disconnects.
func (l *Ledger) SSEHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "events: streaming unsupported", http.StatusInternalServerError)
			return
		}
		var after uint64
		if id := req.Header.Get("Last-Event-ID"); id != "" {
			v, err := strconv.ParseUint(id, 10, 64)
			if err != nil {
				http.Error(w, "events: bad Last-Event-ID", http.StatusBadRequest)
				return
			}
			after = v
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()

		// Subscribe before the first read so an emit between the read and
		// the wait cannot be missed (the token is buffered).
		notify := l.Subscribe()
		defer l.Unsubscribe(notify)

		var enc eventEncoder
		buf := make([]Event, 0, 256)
		cursor := after
		for {
			evs, gap := l.ReadSince(cursor, buf[:0])
			if gap {
				fmt.Fprintf(w, ": gap after seq %d\n\n", cursor)
			}
			for i := range evs {
				ev := &evs[i]
				enc.buf = fmt.Appendf(enc.buf[:0], "id: %d\nevent: %s\ndata: ", ev.Seq, ev.Type)
				enc.event(ev)
				if enc.err != nil {
					return
				}
				if _, err := w.Write(append(enc.buf, '\n')); err != nil {
					return
				}
				cursor = ev.Seq
			}
			if len(evs) > 0 {
				fl.Flush()
			}
			select {
			case <-req.Context().Done():
				return
			case <-notify:
			}
		}
	})
}

// StatusHandler serves the live run summary as JSON.
func (l *Ledger) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		st := l.Status()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}
