//! The route table: every resource the service answers, one row each.
//!
//! Everything that names an endpoint derives from [`ROUTES`]: dispatch,
//! `404`s, `405`s with their `Allow` header and message, the
//! `scpg_requests_total` labels ([`crate::metrics::ENDPOINTS`]), what a
//! request leaves in the trace store and event log, the body parser of
//! each analysis endpoint, and the batch job kinds `POST /v1/jobs`
//! accepts ([`job_kinds`]).

use std::sync::Arc;

use scpg::service::QueryLimits;
use scpg_json::Json;
use scpg_technique::TechniqueRegistry;

use crate::api::{self, ApiRequest};
use crate::http::Request;
use crate::{Reply, Shared};

/// The endpoint name of requests the event loop answered without
/// routing them (malformed heads, idle-timeout `408`s, drain-time
/// `503`s): what clients saw but no handler did.
pub(crate) const REFUSED: &str = "(refused)";

/// A parsed request body, or the `422` message refusing it.
type Parsed = Result<ApiRequest, String>;

/// Parses a request body into an [`ApiRequest`].
pub(crate) type Parser = fn(&Json, &QueryLimits, &TechniqueRegistry) -> Parsed;

/// Answers a request on the event loop.
pub(crate) type Handler = fn(&Arc<Shared>, &Call<'_>) -> Reply;

/// One routed request, as an inline [`Handler`] sees it.
pub(crate) struct Call<'a> {
    pub req: &'a Request,
    /// The `{id}` path segment (empty when the pattern has none).
    pub id: &'a str,
    /// The raw query string (empty when absent).
    pub query: &'a str,
    /// The request's trace id.
    pub trace_id: &'a str,
}

/// Where a matched request is answered.
pub(crate) enum Lane {
    /// On the event loop, by this handler.
    Inline(Handler),
    /// Parsed on the event loop, computed on the worker pool (a cache
    /// hit answers inline).
    Queued(Parser),
    /// As [`Lane::Queued`], and also accepted as a batch-job `kind`.
    Batchable(Parser),
}

/// What a request leaves in the introspection stores. Introspection
/// endpoints record less, so a dashboard polling them does not evict
/// the very records it reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Record {
    /// A wide event in the event log and spans in the trace store.
    #[default]
    All,
    /// A wide event only.
    EventOnly,
    /// Nothing.
    Nothing,
}

/// One resource.
pub struct Route {
    /// Path pattern; `{id}` matches any one segment.
    pub pattern: &'static str,
    /// Metric label, histogram label and wide-event endpoint (several
    /// rows may share one).
    pub endpoint: &'static str,
    /// The methods served, as the `Allow` header of a `405` names them.
    pub allow: &'static str,
    /// The `405` message for any other method.
    pub wrong_method: &'static str,
    pub(crate) lane: Lane,
    pub(crate) record: Record,
}

const POST_ONLY: &str = "use POST for this endpoint";
const GET_ONLY: &str = "use GET for this endpoint";
const JOBS: &str = "use POST (submit) or GET (list) on /v1/jobs";
const JOB: &str = "use GET /v1/jobs/{id}[/result] or DELETE /v1/jobs/{id}";
const TRACES: &str = "use GET on /v1/traces[/{id}]";

const fn route(
    pattern: &'static str,
    endpoint: &'static str,
    allow: &'static str,
    wrong_method: &'static str,
    lane: Lane,
    record: Record,
) -> Route {
    Route {
        pattern,
        endpoint,
        allow,
        wrong_method,
        lane,
        record,
    }
}

use Lane::{Batchable, Inline, Queued};
use Record::{All, EventOnly, Nothing};

/// Every resource, in `scpg_requests_total` label order.
#[rustfmt::skip]
pub static ROUTES: &[Route] = &[
    route("/v1/sweep", "sweep", "POST", POST_ONLY, Batchable(sweep), All),
    route("/v1/table", "table", "POST", POST_ONLY, Batchable(table), All),
    route("/v1/headline", "headline", "POST", POST_ONLY, Queued(headline), All),
    route("/v1/variation", "variation", "POST", POST_ONLY, Batchable(variation), All),
    route("/v1/activity", "activity", "POST", POST_ONLY, Queued(activity), All),
    route("/v1/compare", "compare", "POST", POST_ONLY, Batchable(compare), All),
    route("/v1/netlists", "netlists", "POST", POST_ONLY, Inline(crate::handle_netlist_upload), All),
    route("/v1/libraries", "libraries", "POST", POST_ONLY, Inline(crate::handle_library_upload), All),
    route("/v1/jobs", "jobs", "POST, GET", JOBS, Inline(crate::handle_jobs), All),
    route("/v1/jobs/{id}", "jobs", "GET, DELETE", JOB, Inline(crate::handle_job), All),
    route("/v1/jobs/{id}/result", "jobs", "GET", JOB, Inline(crate::handle_job_result), All),
    route("/v1/traces", "traces", "GET", TRACES, Inline(crate::handle_traces), EventOnly),
    route("/v1/traces/{id}", "traces", "GET", TRACES, Inline(crate::handle_trace), EventOnly),
    route("/v1/logs", "logs", "GET", GET_ONLY, Inline(crate::handle_logs), Nothing),
    route("/v1/status", "status", "GET", GET_ONLY, Inline(crate::handle_status), Nothing),
    route("/v1/designs", "designs", "GET", GET_ONLY, Inline(crate::handle_designs), All),
    route("/healthz", "healthz", "GET", GET_ONLY, Inline(crate::handle_healthz), EventOnly),
    route("/metrics", "metrics", "GET", GET_ONLY, Inline(crate::handle_metrics), EventOnly),
];

fn sweep(body: &Json, limits: &QueryLimits, _: &TechniqueRegistry) -> Parsed {
    api::parse_sweep(body, limits).map(|(spec, query)| ApiRequest::Query { spec, query })
}

fn table(body: &Json, limits: &QueryLimits, _: &TechniqueRegistry) -> Parsed {
    api::parse_table(body, limits).map(|(spec, query)| ApiRequest::Query { spec, query })
}

fn headline(body: &Json, limits: &QueryLimits, _: &TechniqueRegistry) -> Parsed {
    api::parse_headline(body, limits).map(|(spec, query)| ApiRequest::Query { spec, query })
}

fn variation(body: &Json, limits: &QueryLimits, _: &TechniqueRegistry) -> Parsed {
    api::parse_variation(body, limits).map(|(spec, cfg)| ApiRequest::Variation { spec, cfg })
}

fn activity(body: &Json, limits: &QueryLimits, _: &TechniqueRegistry) -> Parsed {
    api::parse_activity(body, limits).map(|(spec, request)| ApiRequest::Activity { spec, request })
}

fn compare(body: &Json, limits: &QueryLimits, techniques: &TechniqueRegistry) -> Parsed {
    api::parse_compare(body, limits, techniques).map(|(spec, frequencies, techniques)| {
        ApiRequest::Compare {
            spec,
            frequencies,
            techniques,
        }
    })
}

impl Route {
    /// The `{id}` segment when `path` matches this row's pattern (empty
    /// when the pattern has none). Compares segment by segment, with no
    /// allocation: every cache hit is dispatched through here.
    fn matches<'p>(&self, path: &'p str) -> Option<&'p str> {
        let (mut pattern, mut path) = (self.pattern.split('/'), path.split('/'));
        let mut id = "";
        loop {
            match (pattern.next(), path.next()) {
                (None, None) => return Some(id),
                (Some("{id}"), Some(segment)) => id = segment,
                (Some(p), Some(segment)) if p == segment => {}
                _ => return None,
            }
        }
    }

    /// Whether this row serves `method`.
    pub fn allows(&self, method: &str) -> bool {
        self.allow.split(", ").any(|m| m == method)
    }
}

/// The row serving `path` (query string already split off) and its
/// `{id}` segment; `None` is a `404`.
pub(crate) fn lookup(path: &str) -> Option<(&'static Route, &str)> {
    ROUTES
        .iter()
        .find_map(|route| route.matches(path).map(|id| (route, id)))
}

/// The batch-job kinds `POST /v1/jobs` accepts: the batchable rows'
/// endpoint names, in table order.
pub fn job_kinds() -> impl Iterator<Item = &'static str> {
    ROUTES
        .iter()
        .filter(|r| matches!(r.lane, Batchable(_)))
        .map(|r| r.endpoint)
}

/// The parser behind batch-job `kind`, or the refusal naming the kinds
/// that exist.
pub(crate) fn job_parser(kind: &str) -> Result<Parser, String> {
    ROUTES
        .iter()
        .find_map(|r| match r.lane {
            Batchable(parse) if r.endpoint == kind => Some(parse),
            _ => None,
        })
        .ok_or_else(|| {
            let kinds: Vec<_> = job_kinds().collect();
            format!("unknown job kind {kind:?} ({})", kinds.join(" | "))
        })
}
