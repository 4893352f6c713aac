// serve::Engine's multi-version store methods. They live in psl_store (not
// psl_serve) so the serve library does not depend on the store layer: the
// engine holds the store behind a forward-declared shared_ptr, and only
// binaries that actually use time-travel (psl_net, psld, psltool, tests)
// link these definitions in.

#include "psl/serve/engine.hpp"
#include "psl/store/store.hpp"

namespace psl::serve {

util::Result<std::uint64_t> Engine::open_store(const std::string& path) {
  auto view = store::StoreView::open(path);
  if (!view.ok()) {
    if (reload_failure_) reload_failure_->add();
    return view.error();
  }
  // Build the newest version BEFORE publishing anything: if that fails, both
  // the current store and the serving state stay untouched (keep-last-good,
  // same contract as reload_snapshot).
  auto snap = (*view)->open_version((*view)->version_count() - 1);
  if (!snap.ok()) {
    if (reload_failure_) reload_failure_->add();
    return snap.error();
  }
  adopt_store(std::move(*view));
  return swap(std::move(*snap));
}

void Engine::adopt_store(std::shared_ptr<const store::StoreView> view) {
  std::lock_guard<std::mutex> lock(store_mutex_);
  store_ = std::move(view);
}

std::shared_ptr<const store::StoreView> Engine::store_view() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return store_;
}

util::Result<std::uint64_t> Engine::pin_version(util::Date date) {
  const auto view = store_view();
  if (!view) {
    if (reload_failure_) reload_failure_->add();
    return util::make_error("store.none", "engine has no store attached");
  }
  auto snap = view->open_at(date);
  if (!snap.ok()) {
    if (reload_failure_) reload_failure_->add();
    return snap.error();
  }
  return swap(std::move(*snap));
}

util::Result<snapshot::Metadata> Engine::match_at(util::Date date,
                                                  std::span<const std::string_view> hosts,
                                                  std::span<MatchView> out) const {
  const auto view = store_view();
  if (!view) return util::make_error("store.none", "engine has no store attached");
  return view->match_at(date, hosts, out);
}

util::Result<std::vector<store::DivergenceRange>> Engine::divergence(
    std::string_view host) const {
  const auto view = store_view();
  if (!view) return util::make_error("store.none", "engine has no store attached");
  return view->divergence(host);
}

}  // namespace psl::serve
