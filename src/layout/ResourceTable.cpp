//===- ResourceTable.cpp --------------------------------------*- C++ -*-===//

#include "layout/ResourceTable.h"

using namespace gator;
using namespace gator::layout;

ResourceId ResourceTable::internLayoutId(std::string_view Name) {
  auto It = LayoutByName.find(Name);
  if (It != LayoutByName.end())
    return It->second;
  ResourceId Id = LayoutIdBase + static_cast<ResourceId>(LayoutNames.size());
  LayoutNames.emplace_back(Name);
  LayoutByName.emplace(LayoutNames.back(), Id);
  return Id;
}

ResourceId ResourceTable::internViewId(std::string_view Name) {
  auto It = ViewIdByName.find(Name);
  if (It != ViewIdByName.end())
    return It->second;
  ResourceId Id = ViewIdBase + static_cast<ResourceId>(ViewIdNames.size());
  ViewIdNames.emplace_back(Name);
  ViewIdByName.emplace(ViewIdNames.back(), Id);
  return Id;
}

ResourceId ResourceTable::lookupLayoutId(std::string_view Name) const {
  auto It = LayoutByName.find(Name);
  return It == LayoutByName.end() ? InvalidResourceId : It->second;
}

ResourceId ResourceTable::lookupViewId(std::string_view Name) const {
  auto It = ViewIdByName.find(Name);
  return It == ViewIdByName.end() ? InvalidResourceId : It->second;
}

std::optional<std::string> ResourceTable::layoutName(ResourceId Id) const {
  if (!isLayoutId(Id))
    return std::nullopt;
  return LayoutNames[Id - LayoutIdBase];
}

std::optional<std::string> ResourceTable::viewIdName(ResourceId Id) const {
  if (!isViewId(Id))
    return std::nullopt;
  return ViewIdNames[Id - ViewIdBase];
}
