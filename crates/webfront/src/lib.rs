//! The Ajax web front end — built to serve many browsers at once.
//!
//! The paper's user interface is a Google-Web-Toolkit Ajax page: the browser
//! polls the front end with `XMLHttpRequest`, only the image component is
//! updated when a new frame arrives ("partial screen updates"), and steering
//! commands are posted back asynchronously.  This crate reproduces that
//! interaction pattern without external web frameworks, and scales it:
//!
//! * [`http`] — an HTTP/1.1 server on a fixed set of threads with
//!   keep-alive connections, pipelining-safe parsing, connection limits,
//!   deferred (non-blocking) long-poll responses, and graceful shutdown;
//!   [`readiness`] is the epoll event loop each of those threads runs,
//! * [`hub`] — the session hub: frames published by the visualization side
//!   are base64/JSON-encoded at most once per wire encoding (the full
//!   frame, the changed-tile *delta*) into shared `Arc<str>` payloads, by
//!   the first poller that asks, and long-polled by any number of browser
//!   clients that each carry their own `since` cursor, plus a steering
//!   inbox,
//! * [`server`] — wiring the hub to HTTP routes (`/api/state`,
//!   `/api/frame`, `/api/poll`, `/api/steer`) and serving
//!   the embedded single-page client,
//! * [`page`] — the embedded HTML/JavaScript page (plain `XMLHttpRequest`
//!   long polling in delta mode, no external assets),
//! * [`multi`] — many sessions behind one server: a live registry of
//!   per-session hubs/inboxes dispatched under `/s/<id>/...` routes.
//!
//! The front end is exercised end-to-end by `examples/web_steering.rs`,
//! which steers a live `ricsa-hydro` simulation from the browser (or from
//! `curl`), and load-tested by the `webfront_load` benchmark binary
//! (hundreds of concurrent pollers over real sockets).  DESIGN.md §7
//! documents the serving-layer architecture.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod hub;
pub mod multi;
pub mod page;
pub mod readiness;
pub mod server;

pub use http::{HttpRequest, HttpResponse, HttpServer, HttpServerConfig, Outcome};
pub use hub::{Frame, FramePayload, PollMode, SessionHub, SteeringInbox};
pub use multi::{MultiFrontEnd, SessionEndpoints};
pub use readiness::Waker;
pub use server::{FrontEndConfig, FrontEndServer};
