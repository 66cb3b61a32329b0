//! Route table: maps `(method, path)` onto the service's endpoints.
//! Which tier serves a compute route's miss is decided per request,
//! by its work bound ([`crate::handlers::prepare_with_work`]), not
//! here.

/// The service's endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz` — liveness probe.
    Healthz,
    /// `GET /metrics` — plain-text metrics.
    Metrics,
    /// `GET /v1/cr?n=&f=` — closed-form competitive-ratio report.
    Cr,
    /// `GET /v1/table1[?measure=true]` — regenerated Table 1 rows.
    Table1,
    /// `POST /v1/scenario` — scenario (or trace) document execution.
    Scenario,
    /// `POST /v1/supremum` — empirical supremum measurement.
    Supremum,
    /// `POST /v1/optimize` — schedule-space optimizer gap report.
    Optimize,
}

impl Route {
    /// The metrics label (also the canonical path) of the route.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "/healthz",
            Route::Metrics => "/metrics",
            Route::Cr => "/v1/cr",
            Route::Table1 => "/v1/table1",
            Route::Scenario => "/v1/scenario",
            Route::Supremum => "/v1/supremum",
            Route::Optimize => "/v1/optimize",
        }
    }
}

/// The outcome of routing a request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// A known endpoint reached with its supported method.
    Matched(Route),
    /// A known path reached with the wrong method; answer 405 and
    /// advertise the allowed one.
    MethodNotAllowed(&'static str),
    /// No such path; answer 404.
    NotFound,
}

/// Routes a `(method, path)` pair.
#[must_use]
pub fn route(method: &str, path: &str) -> Routed {
    let (expected, route) = match path {
        "/healthz" => ("GET", Route::Healthz),
        "/metrics" => ("GET", Route::Metrics),
        "/v1/cr" => ("GET", Route::Cr),
        "/v1/table1" => ("GET", Route::Table1),
        "/v1/scenario" => ("POST", Route::Scenario),
        "/v1/supremum" => ("POST", Route::Supremum),
        "/v1/optimize" => ("POST", Route::Optimize),
        _ => return Routed::NotFound,
    };
    if method == expected {
        Routed::Matched(route)
    } else {
        Routed::MethodNotAllowed(expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_routes_match_their_methods() {
        assert_eq!(route("GET", "/healthz"), Routed::Matched(Route::Healthz));
        assert_eq!(route("GET", "/v1/cr"), Routed::Matched(Route::Cr));
        assert_eq!(route("POST", "/v1/scenario"), Routed::Matched(Route::Scenario));
        assert_eq!(route("POST", "/v1/supremum"), Routed::Matched(Route::Supremum));
        assert_eq!(route("POST", "/v1/optimize"), Routed::Matched(Route::Optimize));
        assert_eq!(route("GET", "/v1/table1"), Routed::Matched(Route::Table1));
    }

    #[test]
    fn wrong_method_advertises_the_right_one() {
        assert_eq!(route("POST", "/v1/cr"), Routed::MethodNotAllowed("GET"));
        assert_eq!(route("GET", "/v1/supremum"), Routed::MethodNotAllowed("POST"));
        assert_eq!(route("GET", "/v1/optimize"), Routed::MethodNotAllowed("POST"));
        assert_eq!(route("DELETE", "/nope"), Routed::NotFound);
    }
}
