package tracing

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func handlerFixture(t *testing.T) (*Tracer, *httptest.Server) {
	t.Helper()
	tracer := New(Config{HeadRate: 1, Buffer: 16})
	srv := httptest.NewServer(tracer.Handler())
	t.Cleanup(srv.Close)
	return tracer, srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp.StatusCode
}

type listResp struct {
	Count  int `json:"count"`
	Traces []struct {
		ID      string `json:"id"`
		Kind    string `json:"kind"`
		URL     string `json:"url"`
		Outcome string `json:"outcome"`
		Kept    string `json:"kept"`
		Spans   int    `json:"spans"`
	} `json:"traces"`
}

func TestHandlerListAndFilters(t *testing.T) {
	tracer, srv := handlerFixture(t)

	hit := tracer.StartRequest("n", "http://hit/")
	hit.AddSpan(Span{Name: SpanLocalLookup, Actual: "hit"})
	hit.Finish("local_hit")
	fh := tracer.StartRequest("n", "http://stale/")
	fh.MarkAnomalous("false_hit")
	fh.Finish("false_hit")
	tracer.ICPAnswer("n2", "n:1", 7, "http://stale/", "miss", time.Now(), true)

	var list listResp
	if code := getJSON(t, srv.URL, &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if list.Count != 3 || len(list.Traces) != 3 {
		t.Fatalf("count = %d, want 3", list.Count)
	}
	// Newest first: the answer trace finished last.
	if list.Traces[0].Kind != KindICPAnswer {
		t.Fatalf("first trace kind = %s, want newest (icp_answer)", list.Traces[0].Kind)
	}
	// Summaries elide span bodies but report the count.
	if list.Traces[2].Spans != 1 {
		t.Fatalf("span count = %d, want 1", list.Traces[2].Spans)
	}

	var fhs listResp
	getJSON(t, srv.URL+"?outcome=false_hit", &fhs)
	if fhs.Count != 1 || fhs.Traces[0].URL != "http://stale/" {
		t.Fatalf("outcome filter: %+v", fhs)
	}
	var answers listResp
	getJSON(t, srv.URL+"?kind=icp_answer", &answers)
	if answers.Count != 1 || answers.Traces[0].Kind != KindICPAnswer {
		t.Fatalf("kind filter: %+v", answers)
	}
}

func TestHandlerSingleTraceView(t *testing.T) {
	tracer, srv := handlerFixture(t)

	tr := tracer.StartRequest("n", "http://doc/")
	tr.SetICPExchange("n:icp", 41)
	tr.AddSpan(Span{
		Name: SpanSummaryProbe, Peer: "p1", Predicted: "hit", Actual: "miss",
		Audit: &Audit{BitIndexes: []uint64{3, 17, 99}, Generation: 5, AgeMS: 12.5},
	})
	tr.Finish("false_hit")
	// An answering-side trace on the same exchange joins the view.
	tracer.ICPAnswer("n2", "n:icp", 41, "http://doc/", "miss", time.Now(), true)

	var full []struct {
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		Spans []Span `json:"spans"`
	}
	if code := getJSON(t, srv.URL+"?id="+tr.ID().String(), &full); code != http.StatusOK {
		t.Fatalf("id view status %d", code)
	}
	if len(full) != 2 {
		t.Fatalf("id view returned %d traces, want request + answer", len(full))
	}
	var probe *Span
	for _, v := range full {
		if v.ID != tr.ID().String() {
			t.Fatalf("trace %s in view for %s", v.ID, tr.ID())
		}
		for i := range v.Spans {
			if v.Spans[i].Name == SpanSummaryProbe {
				probe = &v.Spans[i]
			}
		}
	}
	if probe == nil || probe.Audit == nil {
		t.Fatal("summary-probe span with audit missing from id view")
	}
	if len(probe.Audit.BitIndexes) != 3 || probe.Audit.Generation != 5 {
		t.Fatalf("audit = %+v", probe.Audit)
	}

	if code := getJSON(t, srv.URL+"?id=zz", new(any)); code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"?id=00000000000000ff", new(any)); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
}
