#include "core/history.h"

namespace ultraverse::core {

std::shared_ptr<const HistorySnapshot> SnapshotOfLog(
    const sql::QueryLog& log, std::vector<QueryRW> analysis,
    const QueryAnalyzer* analyzer) {
  auto view = std::make_shared<HistorySnapshot>();
  view->epoch = log.epoch();
  view->horizon = log.size();
  view->generation = log.generation();
  auto segment = std::make_shared<const std::vector<sql::LogEntry>>(
      log.entries().begin(), log.entries().end());
  auto entries = std::make_shared<std::vector<const sql::LogEntry*>>();
  entries->reserve(segment->size());
  for (const sql::LogEntry& entry : *segment) entries->push_back(&entry);
  view->entry_storage.push_back(std::move(segment));
  view->entries = std::move(entries);
  view->analysis =
      std::make_shared<const std::vector<QueryRW>>(std::move(analysis));
  if (analyzer != nullptr) {
    auto copy = std::make_shared<QueryAnalyzer>(*analyzer);
    // The frozen copy must not feed the caller's static-soundness observer.
    copy->set_observer(nullptr);
    view->analyzer = std::move(copy);
  }
  return view;
}

}  // namespace ultraverse::core
