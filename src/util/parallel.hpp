#pragma once

namespace dbr {

/// Default worker-thread count: hardware concurrency, overridable through
/// the DBR_THREADS environment variable. Sizes net::Server's pool when
/// ServerOptions::workers is 0.
unsigned worker_count();

}  // namespace dbr
