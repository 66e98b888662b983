package analytics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/registry"
)

// HTTP query API, served on the internal/serve chassis next to the
// registry:
//
//	GET /analytics/summary        operational summary (JSON)
//	GET /analytics/dedup          current dedup ratios (JSON)
//	GET /analytics/figures        figure index: id + title (JSON)
//	GET /analytics/figure/{id}    one rendered figure (text)
//
// Every response carries X-Analytics-Epoch: the mutation epoch its
// snapshot was taken at. A render in progress keeps serving its epoch
// while pushes land; the next request observes the new epoch.

// Handler returns the query API handler.
func (l *Live) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analytics/summary", func(w http.ResponseWriter, req *http.Request) {
		s := l.Snapshot()
		setEpoch(w, s.Epoch)
		writeJSON(w, s.Summary())
	})
	mux.HandleFunc("/analytics/dedup", func(w http.ResponseWriter, req *http.Request) {
		s := l.Snapshot()
		res, err := s.Result()
		if err != nil {
			registry.WriteError(w, http.StatusInternalServerError, "UNKNOWN", err.Error())
			return
		}
		setEpoch(w, s.Epoch)
		writeJSON(w, res.Index.Ratios())
	})
	mux.HandleFunc("/analytics/figures", func(w http.ResponseWriter, req *http.Request) {
		s := l.Snapshot()
		figs, err := s.Figures()
		if err != nil {
			registry.WriteError(w, http.StatusInternalServerError, "UNKNOWN", err.Error())
			return
		}
		type row struct {
			ID    string `json:"id"`
			Title string `json:"title"`
		}
		rows := make([]row, 0, len(figs))
		for _, f := range figs {
			rows = append(rows, row{f.ID, f.Title})
		}
		setEpoch(w, s.Epoch)
		writeJSON(w, rows)
	})
	mux.HandleFunc("/analytics/figure/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/analytics/figure/")
		if id == "" || strings.Contains(id, "/") {
			registry.WriteError(w, http.StatusNotFound, "FIGURE_UNKNOWN", "missing or malformed figure id")
			return
		}
		s := l.Snapshot()
		figs, err := s.Figures()
		if err != nil {
			registry.WriteError(w, http.StatusInternalServerError, "UNKNOWN", err.Error())
			return
		}
		for i := range figs {
			if figs[i].ID == id {
				setEpoch(w, s.Epoch)
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprint(w, figs[i].String())
				return
			}
		}
		registry.WriteError(w, http.StatusNotFound, "FIGURE_UNKNOWN",
			"no figure "+id+" at this epoch (see /analytics/figures)")
	})
	return mux
}

func setEpoch(w http.ResponseWriter, epoch uint64) {
	w.Header().Set("X-Analytics-Epoch", fmt.Sprint(epoch))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
